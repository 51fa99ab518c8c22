// serve-openloop: Poisson arrivals into four cpu-fast tenants.
//
// Each tenant holds a seeded ~40k-edge community graph (the `pimtc serve`
// default kind), sent as inserts and then 20% churn deletes, in batches of
// 128 updates.  One generator thread sends the four tenants' batches at a
// fixed total rate, first `lo` (10k updates/s) and then `hi` (30k
// updates/s, near the knee), each into a fresh SessionManager with 2 drain
// workers, one host thread per engine and AdmissionPolicy::kReject; one
// querier thread reads snapshots beside the writes.  Tenants run cpu-fast:
// a pim session's 128-update delete batches force full recounts of the
// dirty cores and fall behind even at 5k updates/s (NOTES.md).
#include <atomic>
#include <map>
#include <memory>
#include <thread>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/prng.hpp"
#include "engine/registry.hpp"
#include "graph/preprocess.hpp"
#include "serve/session_manager.hpp"
#include "serve_loop.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pimtc;

constexpr std::size_t kTenants = 4;
// community() keeps ~0.81 of its edge argument: ~40k edges per tenant.
constexpr EdgeCount kTenantEdgeArg = 50'000;
constexpr std::size_t kBatchUpdates = 128;
constexpr double kDeleteFrac = 0.2;
constexpr int kSetupReps = 100;
constexpr auto kQueryPeriod = std::chrono::milliseconds(1);

struct Rate {
  const char* name;
  double updates_per_s;
  std::uint64_t schedule_stream;  ///< seeds this rate's arrivals
};
constexpr Rate kRates[] = {{"lo", 10'000.0, 0x10}, {"hi", 30'000.0, 0x11}};

serve::ServeConfig serve_config() {
  serve::ServeConfig cfg;
  cfg.workers = 2;
  cfg.session_host_threads = 1;
  return cfg;
}

engine::EngineConfig engine_config(std::uint64_t seed) {
  engine::EngineConfig cfg;
  cfg.seed = seed;
  return cfg;
}

/// Reads snapshots round robin, one per period, until stopped.
struct Querier {
  std::vector<double> latency_s;
  std::uint64_t queue_depth_max = 0;
  bool epochs_monotonic = true;
};

void query_loop(const serve::SessionManager& mgr,
                const std::vector<TenantStream>& tenants, Tracer& tracer,
                const std::atomic<bool>& stop, Querier& q) {
  std::vector<std::uint64_t> last_epoch(tenants.size(), 0);
  Clock::time_point next = Clock::now();
  for (std::size_t i = 0; !stop.load(); ++i) {
    const std::size_t t = i % tenants.size();
    serve::QueryResult r;
    {
      Tracer::Span s(tracer, "serve", "query");
      r = mgr.query(tenants[t].name);
      q.latency_s.push_back(s.end());
    }
    if (r.epoch < last_epoch[t]) q.epochs_monotonic = false;
    last_epoch[t] = r.epoch;
    q.queue_depth_max =
        std::max(q.queue_depth_max, r.stats.queue_depth_updates);
    next += kQueryPeriod;
    std::this_thread::sleep_until(next);
  }
}

/// Everything one rate's phase produced.
struct Phase {
  double setup_s = 0.0;
  OpenLoopResult loop;
  Querier querier;
  std::vector<serve::QueryResult> final;
  std::uint64_t updates_visible = 0;
};

double open_sessions(serve::SessionManager& mgr,
                     const std::vector<TenantStream>& tenants,
                     const engine::EngineConfig& cfg, Tracer& tracer) {
  double s = 0.0;
  for (const TenantStream& ts : tenants) {
    Tracer::Span span(tracer, "serve", "open");
    mgr.open(ts.name, "cpu-fast", cfg, serve::AdmissionPolicy::kReject);
    s += span.end();
  }
  return s;
}

Phase run_phase(const std::vector<TenantStream>& tenants,
                const std::vector<Arrival>& schedule,
                const engine::EngineConfig& cfg, Tracer& tracer,
                RunResult& out) {
  Phase p;
  const double t0 = tracer.now_s();
  auto mgr = std::make_unique<serve::SessionManager>(serve_config());
  p.setup_s = tracer.now_s() - t0 + open_sessions(*mgr, tenants, cfg, tracer);

  std::atomic<bool> stop{false};
  std::thread querier(
      [&] { query_loop(*mgr, tenants, tracer, stop, p.querier); });
  try {
    p.loop = run_open_loop(*mgr, tenants, schedule, tracer);
  } catch (...) {
    stop.store(true);
    querier.join();
    throw;
  }
  stop.store(true);
  querier.join();

  // Gate (untimed): each session's final estimate must equal a serial
  // replay of its accepted batches under the session's resolved config.
  const engine::EngineConfig resolved = mgr->resolve_engine_config(cfg);
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    p.final.push_back(mgr->query(tenants[t].name));
    const serve::QueryResult& fin = p.final.back();
    p.updates_visible += fin.stats.updates_applied;
    auto oracle = engine::make_engine("cpu-fast", resolved);
    for (std::size_t b = 0; b < tenants[t].batches.size(); ++b) {
      if (p.loop.accepted[t][b]) oracle->apply(tenants[t].batches[b]);
    }
    const double want = oracle->recount().estimate;
    if (fin.estimate != want) {
      out.fail_check(tenants[t].name + " served estimate " +
                     std::to_string(fin.estimate) + " != serial replay " +
                     std::to_string(want));
    }
  }
  if (!p.querier.epochs_monotonic) out.fail_check("a snapshot epoch went back");
  {
    Tracer::Span s(tracer, "serve", "close_all");
    mgr->close_all();
  }
  return p;
}

}  // namespace

void run_serve_openloop(const Options& opt, Tracer& tracer, RunResult& out) {
#ifdef __GLIBC__
  // One malloc arena for every thread of the run.  With glibc's default
  // (an arena per contending thread) peak_rss_mb depended on which threads
  // happened to allocate at once: 18.9-24.1 MB over five runs of one seed,
  // against 15.4-15.6 MB with a single arena (NOTES.md).
  mallopt(M_ARENA_MAX, 1);
#endif
  const engine::EngineConfig cfg = engine_config(derive_seed(opt.seed, 2));
  std::vector<TenantStream> tenants(kTenants);
  std::vector<std::size_t> batches_per_tenant;
  for (std::size_t i = 0; i < kTenants; ++i) {
    TenantStream& ts = tenants[i];
    ts.name = "tenant-" + std::to_string(i);
    const std::uint64_t tseed = derive_seed(opt.seed, 0x5e55'0000ull + i);
    graph::EdgeList g = community(kTenantEdgeArg, tseed);
    graph::preprocess(g, tseed);
    std::vector<EdgeUpdate> updates;
    for (const Edge& e : g.edges()) updates.push_back(insert_of(e));
    const std::vector<EdgeUpdate> churn = churn_deletes(g, kDeleteFrac, tseed);
    updates.insert(updates.end(), churn.begin(), churn.end());
    for (std::size_t off = 0; off < updates.size(); off += kBatchUpdates) {
      const std::size_t end = std::min(updates.size(), off + kBatchUpdates);
      ts.batches.emplace_back(
          updates.begin() + static_cast<std::ptrdiff_t>(off),
          updates.begin() + static_cast<std::ptrdiff_t>(end));
    }
    batches_per_tenant.push_back(ts.batches.size());
  }

  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    const double t0 = tracer.now_s();
    serve::SessionManager mgr(serve_config());
    setups.push_back(tracer.now_s() - t0 +
                     open_sessions(mgr, tenants, cfg, tracer));
  }

  // One pass runs both rates.  With --trace 1 an untraced pass comes first
  // and a traced pass second; the gap between them is the tracing overhead.
  struct Pass {
    std::vector<Phase> phases;  // lo, hi
    double start_s = 0.0;
    double end_s = 0.0;
  };
  const auto run_pass = [&](bool traced) {
    Pass pass;
    tracer.set_recording(traced);
    pass.start_s = tracer.now_s();
    for (const Rate& rate : kRates) {
      const double batches_per_s =
          rate.updates_per_s / static_cast<double>(kBatchUpdates);
      const std::vector<Arrival> schedule =
          poisson_schedule(derive_seed(opt.seed, rate.schedule_stream),
                           batches_per_s, batches_per_tenant);
      pass.phases.push_back(run_phase(tenants, schedule, cfg, tracer, out));
    }
    pass.end_s = tracer.now_s();
    tracer.set_recording(false);
    return pass;
  };
  const Pass untraced = run_pass(false);
  const Pass traced = opt.trace ? run_pass(true) : Pass{};

  // Accounting and the named latencies come from the untraced pass.
  std::uint64_t visible = 0;
  double wall = 0.0;
  for (const Phase& ph : untraced.phases) {
    setups.push_back(ph.setup_s);
    const std::uint64_t batches = ph.loop.late_s.size();
    std::uint64_t apply_failed = 0;
    for (const serve::QueryResult& f : ph.final) {
      apply_failed += f.stats.batches_failed;
    }
    out.attempted += batches;
    out.failed += ph.loop.rejected + ph.loop.unpublished + apply_failed;
    visible += ph.updates_visible;
    wall += ph.loop.wall_s;
  }
  const auto ms = [](std::vector<double> v) {
    for (double& x : v) x *= 1e3;
    return v;
  };
  // The named latencies, with their sample counts.  A p99 is reported only
  // when the percentile rule allows it: at least 10 samples beyond it.
  char buf[200];
  std::map<std::string, double> named;
  for (std::size_t r = 0; r < 2; ++r) {
    const std::string prefix = std::string("serve.") + kRates[r].name;
    const std::vector<double> v = ms(untraced.phases[r].loop.due_to_visible_s);
    const Tail tail = tail_percentile(v);
    named[prefix + ".p50_ms"] = median(v);
    named[prefix + ".p99_ms"] = percentile(v, 0.99).value;
    std::snprintf(buf, sizeof buf,
                  "%s: %zu batches visible, p50 %.3f ms, tail p%g %.3f ms (%zu "
                  "samples beyond it)",
                  prefix.c_str(), v.size(), median(v), tail.q * 100, tail.value,
                  tail.beyond);
    out.note(buf);
    if (tail.q < 0.99) {
      out.fail_check(prefix + ".p99_ms has fewer than 10 samples beyond it");
    }
  }
  named["serve.failed_frac"] =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);

  if (!opt.trace) {
    out.set("setup_s", median(setups), "s");
    // The served goodput.  The latencies are printed below and gated
    // nowhere: on a shared host they moved by a quarter between runs of one
    // seed (NOTES.md).
    out.set("items_per_s", static_cast<double>(visible) / wall, "1/s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    for (const auto& [name, value] : named) {
      out.note_metric(name, value,
                      name == "serve.failed_frac" ? "ratio" : "ms");
    }
    return;
  }

  // Per-layer metrics from the traced pass, both rates pooled.
  const std::vector<SpanRecord> spans = tracer.records();
  std::vector<double> late, to_admit, to_visible, query;
  std::uint64_t depth = 0, publishes = 0, applied = 0, recounts_failed = 0;
  double build_s = 0.0, count_s = 0.0, probes = 0.0;
  for (const Phase& ph : traced.phases) {
    late.insert(late.end(), ph.loop.late_s.begin(), ph.loop.late_s.end());
    to_admit.insert(to_admit.end(), ph.loop.due_to_admit_s.begin(),
                    ph.loop.due_to_admit_s.end());
    to_visible.insert(to_visible.end(), ph.loop.admit_to_visible_s.begin(),
                      ph.loop.admit_to_visible_s.end());
    query.insert(query.end(), ph.querier.latency_s.begin(),
                 ph.querier.latency_s.end());
    depth = std::max(depth, ph.querier.queue_depth_max);
    for (const serve::QueryResult& f : ph.final) {
      publishes += f.stats.epoch;
      applied += f.stats.updates_applied;
      recounts_failed += f.stats.recounts_failed;
      build_s += f.report.times.ingest_s;
      count_s += f.report.times.count_s;
      probes += static_cast<double>(f.report.kernel.bitmap_probes);
    }
  }
  out.set("engine.make_s", span_sum(spans, "serve", "open").total_s, "s");
  out.set("cpufast.build_s", build_s, "s");
  out.set("cpufast.count_s", count_s, "s");
  out.set("cpufast.bitmap_probes", probes, "count");
  out.set("serve.submit_s", span_sum(spans, "serve", "submit").total_s, "s");
  out.set("serve.due_to_admit_p99_ms", percentile(ms(to_admit), 0.99).value,
          "ms");
  out.set("serve.admit_to_visible_p99_ms",
          percentile(ms(to_visible), 0.99).value, "ms");
  out.set("serve.late_ms", percentile(ms(late), 0.99).value, "ms");
  out.set("serve.queue_depth_max", static_cast<double>(depth), "count");
  out.set("serve.publishes", static_cast<double>(publishes), "count");
  out.set("serve.updates_per_publish",
          publishes ? static_cast<double>(applied) / publishes : 0.0, "count");
  out.set("serve.query_p99_us", percentile(query, 0.99).value * 1e6, "us");
  out.set("serve.recounts_failed", static_cast<double>(recounts_failed),
          "count");

  for (const auto& [name, value] : named) {
    out.set(name, value, name == "serve.failed_frac" ? "ratio" : "ms");
  }

  std::vector<double> untraced_lat, traced_lat;
  for (const Phase& ph : untraced.phases) {
    untraced_lat.insert(untraced_lat.end(), ph.loop.due_to_visible_s.begin(),
                        ph.loop.due_to_visible_s.end());
  }
  for (const Phase& ph : traced.phases) {
    traced_lat.insert(traced_lat.end(), ph.loop.due_to_visible_s.begin(),
                      ph.loop.due_to_visible_s.end());
  }
  out.set("trace.overhead_frac", tracing_overhead(traced_lat, untraced_lat),
          "ratio");
  report_trace(opt, tracer, {{traced.start_s, traced.end_s}}, out);
}

}  // namespace perfbench
