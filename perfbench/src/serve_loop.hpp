// The open-loop load generator of the serve-openloop workload.
//
// Arrivals follow a Poisson process at a fixed total rate, drawn from the
// workload seed, so a schedule can be replayed exactly.  The generator
// sends each batch when it is due whether or not earlier ones are
// visible yet, and every batch is timed from its due time: a generator
// that falls behind (a stall, a slow submit) adds its lateness to the
// latency of every batch it delays, instead of hiding it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/session_manager.hpp"
#include "trace.hpp"

namespace perfbench {

struct Arrival {
  double due_s = 0.0;  ///< seconds after the schedule starts
  std::uint32_t tenant = 0;
  std::uint32_t batch = 0;  ///< index into the tenant's batches
};

/// Exponential gaps at `rate_per_s`; each arrival goes to a tenant drawn
/// uniformly among those with batches left, which sends its next batch.
[[nodiscard]] std::vector<Arrival> poisson_schedule(
    std::uint64_t seed, double rate_per_s,
    const std::vector<std::size_t>& batches_per_tenant);

struct TenantStream {
  std::string name;
  std::vector<std::vector<pimtc::EdgeUpdate>> batches;
};

struct OpenLoopResult {
  std::vector<double> late_s;          ///< submit start - due, per arrival
  std::vector<double> due_to_admit_s;  ///< submit return - due, per arrival
  std::vector<double> admit_to_visible_s;  ///< per published batch
  std::vector<double> due_to_visible_s;    ///< per published batch
  /// accepted[t][b]: tenant t's batch b was admitted.
  std::vector<std::vector<bool>> accepted;
  std::uint64_t rejected = 0;     ///< batches the manager refused
  std::uint64_t unpublished = 0;  ///< accepted, never made visible
  double wall_s = 0.0;            ///< schedule start to last flush
};

/// Sends `schedule` to the open sessions of `mgr` from the calling thread,
/// flushes every tenant, and joins each accepted batch with its
/// admit-to-visible latency from SessionManager::latencies().
/// `before_submit`, when set, runs before each submit (tests use it to
/// stall the generator).
[[nodiscard]] OpenLoopResult run_open_loop(
    pimtc::serve::SessionManager& mgr, const std::vector<TenantStream>& tenants,
    const std::vector<Arrival>& schedule, Tracer& tracer,
    const std::function<void(std::size_t)>& before_submit = {});

}  // namespace perfbench
