#include "engine/registry.hpp"

#include <map>
#include <stdexcept>
#include <utility>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "cpufast/cpu_fast_engine.hpp"
#include "engine/cpu_engine.hpp"
#include "tc/host.hpp"

namespace pimtc::engine {

namespace {

// Explicit registration of the built-ins (instead of self-registering
// translation units, which a static-library link is free to drop).
struct Registry {
  Mutex mutex;
  std::map<std::string, EngineFactory, std::less<>> factories
      PIMTC_GUARDED_BY(mutex);

  Registry() {
    factories.emplace("pim", [](const EngineConfig& cfg) {
      return std::make_unique<tc::PimTriangleCounter>(cfg);
    });
    factories.emplace("cpu", [](const EngineConfig& cfg) {
      return std::make_unique<CpuEngine>(cfg);
    });
    factories.emplace("cpu-incremental", [](const EngineConfig& cfg) {
      return std::make_unique<IncrementalCpuEngine>(cfg);
    });
    factories.emplace("cpu-fast", [](const EngineConfig& cfg) {
      return std::make_unique<cpufast::CpuFastEngine>(cfg);
    });
  }
};

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace

std::unique_ptr<TriangleCountEngine> make_engine(std::string_view name,
                                                 const EngineConfig& config) {
  EngineFactory factory;
  {
    Registry& reg = registry();
    const MutexLock lock(reg.mutex);
    const auto it = reg.factories.find(name);
    if (it == reg.factories.end()) {
      std::string known;
      for (const auto& [n, f] : reg.factories) {
        if (!known.empty()) known += ", ";
        known += n;
      }
      throw std::invalid_argument("unknown backend '" + std::string(name) +
                                  "' (registered: " + known + ")");
    }
    factory = it->second;
  }
  config.validate();
  return factory(config);
}

void register_backend(std::string name, EngineFactory factory) {
  if (name.empty() || !factory) {
    throw std::invalid_argument("register_backend: empty name or factory");
  }
  Registry& reg = registry();
  const MutexLock lock(reg.mutex);
  if (!reg.factories.emplace(std::move(name), std::move(factory)).second) {
    throw std::invalid_argument("register_backend: name already registered");
  }
}

std::vector<std::string> registered_backends() {
  Registry& reg = registry();
  const MutexLock lock(reg.mutex);
  std::vector<std::string> names;
  names.reserve(reg.factories.size());
  for (const auto& [name, factory] : reg.factories) names.push_back(name);
  return names;
}

}  // namespace pimtc::engine
