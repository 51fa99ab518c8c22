#include "workloads.hpp"

#include <cstdio>
#include <map>
#include <numeric>

#include "common/prng.hpp"
#include "engine/registry.hpp"
#include "graph/generators.hpp"

namespace perfbench {

using namespace pimtc;

graph::EdgeList ba_hubs(EdgeCount body_edges, std::uint64_t seed) {
  graph::EdgeList g = graph::gen::barabasi_albert(
      static_cast<NodeId>(body_edges / 5), 5, seed);
  graph::gen::add_hubs(g, 3, static_cast<NodeId>(body_edges / 20), seed + 1);
  return g;
}

graph::EdgeList community(EdgeCount edges, std::uint64_t seed) {
  return graph::gen::community(static_cast<NodeId>(edges / 25), 64, 0.6,
                               edges / 20, seed);
}

std::vector<EdgeUpdate> churn_deletes(const graph::EdgeList& g, double frac,
                                      std::uint64_t seed) {
  const std::uint64_t m = g.num_edges();
  const auto n_del = static_cast<std::uint64_t>(frac * static_cast<double>(m));
  std::vector<std::uint64_t> order(m);
  std::iota(order.begin(), order.end(), std::uint64_t{0});
  Xoshiro256ss rng(derive_seed(seed, 0xde1e7e));
  std::vector<EdgeUpdate> churn;
  churn.reserve(n_del);
  for (std::uint64_t i = 0; i < n_del; ++i) {
    std::swap(order[i], order[i + rng.next_below(m - i)]);
    churn.push_back(delete_of(g[order[i]]));
  }
  return churn;
}

double engines_setup_s(
    Tracer& tracer, int reps,
    const std::function<engine::EngineConfig(const std::string&)>&
        config_for) {
  std::vector<double> setups;
  for (int i = 0; i < reps; ++i) {
    double s = 0.0;
    for (const char* backend : {"cpu-fast", "pim"}) {
      Tracer::Span span(tracer, "engine", "make_engine");
      const auto eng = engine::make_engine(backend, config_for(backend));
      s += span.end();
    }
    setups.push_back(s);
  }
  return median(setups);
}

PimClocks split_clocks(const engine::CountReport& r, double calls_wall_s) {
  PimClocks c;
  c.host_s = r.times.host_s;
  c.sim_overhead_s = calls_wall_s - r.times.host_s;
  c.modeled_setup_s = r.times.setup_s;
  c.modeled_ingest_s = r.times.ingest_s;
  c.modeled_count_s = r.times.count_s;
  return c;
}

void set_pim_layer_metrics(RunResult& out, const engine::CountReport& r,
                           const PimClocks& clocks) {
  out.set("pim.host_s", clocks.host_s, "s");
  out.set("pim.sim_overhead_s", clocks.sim_overhead_s, "s");
  out.set("pim.modeled_setup_s", clocks.modeled_setup_s, "s");
  out.set("pim.modeled_ingest_s", clocks.modeled_ingest_s, "s");
  out.set("pim.modeled_count_s", clocks.modeled_count_s, "s");

  const pim::TransferStats& t = r.transfers;
  const double payload =
      static_cast<double>(t.push_payload_bytes + t.pull_payload_bytes);
  const double wire =
      static_cast<double>(t.push_wire_bytes + t.pull_wire_bytes);
  out.set("pim.payload_bytes", payload, "bytes");
  out.set("pim.wire_bytes", wire, "bytes");
  out.set("pim.pad_ratio", payload > 0 ? wire / payload : 0.0, "ratio");
  out.set("pim.pushes", static_cast<double>(t.push_transfers), "count");
  out.set("pim.pulls", static_cast<double>(t.pull_transfers), "count");

  out.set("tc.kernel_instructions",
          static_cast<double>(r.kernel.instructions), "count");
  out.set("tc.count_instructions",
          static_cast<double>(r.kernel.count_instructions), "count");
  out.set("tc.merge_isects", static_cast<double>(r.kernel.merge_isects),
          "count");
  out.set("tc.gallop_isects", static_cast<double>(r.kernel.gallop_isects),
          "count");

  out.set("coloring.imbalance", r.load_imbalance, "ratio");
  out.set("coloring.edges_replicated", static_cast<double>(r.edges_replicated),
          "count");

  out.set("sketch.overflowed_cores",
          static_cast<double>(r.reservoir_overflows), "count");
  // Share of cores whose reservoir kept every edge offered to it.  The
  // report carries no per-core resident counts, so this is per core.
  out.set("sketch.kept_frac",
          r.num_units > 0
              ? 1.0 - static_cast<double>(r.reservoir_overflows) /
                          static_cast<double>(r.num_units)
              : 0.0,
          "ratio");
  out.set("sketch.evictions", static_cast<double>(r.sample_evictions),
          "count");
  out.set("sketch.delete_misses", static_cast<double>(r.delete_misses),
          "count");
  out.set("sketch.heavy_hitters", static_cast<double>(r.heavy_hitters.size()),
          "count");
}

void report_trace(const Options& opt, const Tracer& tracer,
                  const std::vector<Window>& traced, RunResult& out) {
  const std::vector<SpanRecord> spans = tracer.records();
  double wall = 0.0;
  double covered = 0.0;
  for (const auto& [start, end] : traced) {
    wall += end - start;
    covered += (end - start) * top_level_coverage(spans, start, end);
  }
  char buf[160];
  for (const LayerTime& lt : layer_self_times(spans)) {
    std::snprintf(buf, sizeof buf,
                  "layer %-8s self %9.4f s  total %9.4f s  %7zu spans  "
                  "(%5.1f%% of traced wall)",
                  lt.layer.c_str(), lt.self_s, lt.total_s, lt.spans,
                  wall > 0 ? 100.0 * lt.self_s / wall : 0.0);
    out.note(buf);
  }
  std::map<std::string, SpanSum> by_name;
  for (const SpanRecord& s : spans) {
    SpanSum& sum = by_name[s.layer + "." + s.name];
    sum.total_s += s.duration_s();
    ++sum.count;
  }
  for (const auto& [name, sum] : by_name) {
    std::snprintf(buf, sizeof buf, "  span %-36s %9.4f s  %7zu calls",
                  name.c_str(), sum.total_s, sum.count);
    out.note(buf);
  }
  std::snprintf(buf, sizeof buf,
                "top-level spans cover %.1f%% of %s's traced wall (%.3f s)",
                wall > 0 ? 100.0 * covered / wall : 0.0,
                opt.workload.c_str(), wall);
  out.note(buf);
  const std::filesystem::path path =
      opt.work_dir / ("trace-" + opt.workload + "-" +
                      std::to_string(opt.seed) + ".json");
  tracer.write_chrome_json(path);
  out.note("trace written to " + path.string());
}

Iterations run_iterations(const Options& opt, Tracer& tracer,
                          const std::function<void(bool traced)>& iteration) {
  Iterations its;
  const double start = tracer.now_s();
  for (int i = 0;; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    tracer.set_recording(traced);
    const double it0 = tracer.now_s();
    iteration(traced);
    const double it1 = tracer.now_s();
    tracer.set_recording(false);
    (traced ? its.traced_s : its.untraced_s).push_back(it1 - it0);
    if (traced) its.traced.emplace_back(it0, it1);
    const bool pair_done = !opt.trace || traced;
    if (pair_done && it1 - start + (it1 - it0) > opt.seconds) return its;
  }
}

double tracing_overhead(const std::vector<double>& traced,
                        const std::vector<double>& untraced) {
  const double base = median(untraced);
  return base > 0 ? (median(traced) - base) / base : 0.0;
}

}  // namespace perfbench
