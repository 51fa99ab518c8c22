#include "serve_loop.hpp"

#include <cmath>
#include <thread>

#include "common/prng.hpp"

namespace perfbench {

using namespace pimtc;

std::vector<Arrival> poisson_schedule(
    std::uint64_t seed, double rate_per_s,
    const std::vector<std::size_t>& batches_per_tenant) {
  Xoshiro256ss rng(derive_seed(seed, 0xa771));
  std::vector<std::uint32_t> next(batches_per_tenant.size(), 0);
  std::vector<std::uint32_t> live;
  std::size_t total = 0;
  for (std::uint32_t t = 0; t < batches_per_tenant.size(); ++t) {
    if (batches_per_tenant[t] > 0) live.push_back(t);
    total += batches_per_tenant[t];
  }
  std::vector<Arrival> out;
  out.reserve(total);
  double due = 0.0;
  while (!live.empty()) {
    // 1 - U lies in (0, 1], so the log is finite.
    due += -std::log(1.0 - rng.next_double()) / rate_per_s;
    const std::size_t pick = rng.next_below(live.size());
    const std::uint32_t t = live[pick];
    out.push_back(Arrival{due, t, next[t]++});
    if (next[t] == batches_per_tenant[t]) {
      live[pick] = live.back();
      live.pop_back();
    }
  }
  return out;
}

OpenLoopResult run_open_loop(
    serve::SessionManager& mgr, const std::vector<TenantStream>& tenants,
    const std::vector<Arrival>& schedule, Tracer& tracer,
    const std::function<void(std::size_t)>& before_submit) {
  OpenLoopResult r;
  r.accepted.resize(tenants.size());
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    r.accepted[t].assign(tenants[t].batches.size(), false);
  }
  // Per tenant, the due-to-admit time of each accepted batch in admission
  // order, which is the order of its latency samples.
  std::vector<std::vector<double>> admitted(tenants.size());

  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& a = schedule[i];
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(a.due_s));
    std::this_thread::sleep_until(due);
    if (before_submit) before_submit(i);
    const TenantStream& ts = tenants[a.tenant];
    const Clock::time_point sent = Clock::now();
    serve::SubmitResult res;
    {
      Tracer::Span s(tracer, "serve", "submit");
      res = mgr.submit(ts.name, ts.batches[a.batch]);
    }
    const Clock::time_point back = Clock::now();
    r.late_s.push_back(std::chrono::duration<double>(sent - due).count());
    const double to_admit = std::chrono::duration<double>(back - due).count();
    r.due_to_admit_s.push_back(to_admit);
    if (res == serve::SubmitResult::kAccepted) {
      r.accepted[a.tenant][a.batch] = true;
      admitted[a.tenant].push_back(to_admit);
    } else {
      ++r.rejected;
    }
  }
  for (const TenantStream& ts : tenants) {
    Tracer::Span s(tracer, "serve", "flush");
    (void)mgr.flush(ts.name);
  }
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const std::vector<double> lat = mgr.latencies(tenants[t].name);
    if (lat.size() != admitted[t].size()) {
      // A failed recount publishes no sample for its batches, so samples
      // can no longer be matched to batches: count the gap, join nothing.
      r.unpublished += admitted[t].size() - std::min(lat.size(),
                                                     admitted[t].size());
      continue;
    }
    for (std::size_t k = 0; k < lat.size(); ++k) {
      r.admit_to_visible_s.push_back(lat[k]);
      r.due_to_visible_s.push_back(admitted[t][k] + lat[k]);
    }
  }
  return r;
}

}  // namespace perfbench
