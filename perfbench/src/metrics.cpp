#include "metrics.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

void RunResult::set(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    fail_check("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics[name] = Metric{value, unit};
}

void RunResult::fail_check(const std::string& what) {
  correct = false;
  note("CHECK FAILED: " + what);
}

void RunResult::note_metric(const std::string& name, double value,
                            const std::string& unit) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  note(name + " = " + buf + " " + unit);
}

std::string RunResult::to_json() const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (first ? "\"" : ",\"") + name + "\":{\"value\":" + buf +
           ",\"unit\":\"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

Tail percentile(std::vector<double> samples, double q) {
  Tail t;
  t.q = q;
  t.n = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  // A small tolerance keeps q*n = 990.0000000001 at rank 990.
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(t.n) - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, t.n);
  t.value = samples[rank - 1];
  t.beyond = t.n - rank;
  return t;
}

Tail tail_percentile(std::vector<double> samples, std::size_t min_beyond) {
  for (const double q : {0.999, 0.99, 0.95, 0.90, 0.50}) {
    const Tail t = percentile(samples, q);
    if (t.n > 0 && t.beyond >= min_beyond) return t;
  }
  Tail none;
  none.n = samples.size();
  return none;
}

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) {
    throw std::runtime_error("getrusage failed");
  }
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
