// static-file: what `pimtc count` does to a graph file, once per backend.
//
// Set-up writes a seeded ba-hubs graph of about 1.4M edges to .pbin and
// computes its reference count (both untimed).  Each iteration then runs
// read_coo -> remove_loops_and_duplicates -> shuffle_edges -> make_engine
// -> count() for cpu-fast and for pim (C = auto, the paper's 2300 cores,
// p = 1, no reservoir overflow), and checks both exact estimates against
// the reference.
#include <memory>

#include "common/prng.hpp"
#include "engine/registry.hpp"
#include "graph/io.hpp"
#include "graph/pbin.hpp"
#include "graph/preprocess.hpp"
#include "graph/reference_tc.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pimtc;

// Body edges of the ba-hubs graph; the hubs bring it to ~1.40M edges.
constexpr EdgeCount kBodyEdges = 1'220'000;
constexpr int kSetupReps = 9;
const char* const kBackends[] = {"cpu-fast", "pim"};
// Counts per iteration: cpu-fast's are short and noisy, so they get more.
constexpr int kCountsPerIteration[] = {4, 1};

engine::EngineConfig config_for(const std::string& backend,
                                std::uint64_t seed) {
  engine::EngineConfig cfg;
  cfg.seed = seed;
  if (backend == "pim") cfg.num_colors = 0;  // auto: fills the machine
  return cfg;
}

struct CountOp {
  double wall_s = 0.0;   ///< read_coo through the returned report
  double count_s = 0.0;  ///< the count() call alone
  std::size_t dropped = 0;
  engine::CountReport report;
};

CountOp count_file(Tracer& tracer, const std::filesystem::path& path,
                   const std::string& backend, std::uint64_t seed) {
  CountOp op;
  const double t0 = tracer.now_s();
  graph::EdgeList g;
  {
    Tracer::Span s(tracer, "graph", "read_coo");
    g = graph::read_coo(path);
  }
  {
    Tracer::Span s(tracer, "graph", "remove_loops_and_duplicates");
    const graph::PreprocessStats st = graph::remove_loops_and_duplicates(g);
    op.dropped = st.removed_self_loops + st.removed_duplicates;
  }
  {
    Tracer::Span s(tracer, "graph", "shuffle_edges");
    graph::shuffle_edges(g, seed);
  }
  std::unique_ptr<engine::TriangleCountEngine> eng;
  {
    Tracer::Span s(tracer, "engine", "make_engine");
    eng = engine::make_engine(backend, config_for(backend, seed));
  }
  {
    Tracer::Span s(tracer, "engine", backend + ".count");
    op.report = eng->count(g);
    op.count_s = s.end();
  }
  op.wall_s = tracer.now_s() - t0;
  {
    // Outside the timed interval, but traced: freeing pim's simulated
    // banks is part of a `pimtc count` process's wall.
    Tracer::Span s(tracer, "engine", backend + ".destroy");
    eng.reset();
  }
  return op;
}

}  // namespace

void run_static_file(const Options& opt, Tracer& tracer, RunResult& out) {
  // One input file, rewritten by every run.
  const std::filesystem::path path = opt.work_dir / "static-file.pbin";
  std::uint64_t edges = 0;
  TriangleCount reference = 0;
  {
    const graph::EdgeList g = ba_hubs(kBodyEdges, derive_seed(opt.seed, 1));
    graph::write_bin(g, path);
    reference = graph::reference_triangle_count(g);
    edges = g.num_edges();
  }
  const std::uint64_t shuffle_seed = derive_seed(opt.seed, 2);

  const double setup_s =
      engines_setup_s(tracer, kSetupReps, [&](const std::string& backend) {
        return config_for(backend, shuffle_seed);
      });

  // Untraced iterations feed the end-to-end metrics; with --trace 1 every
  // second iteration records spans and feeds the per-layer metrics.
  std::vector<double> cpu_wall;
  std::vector<double> pim_wall;
  CountOp traced_cpu;  // the last traced count of each backend
  CountOp traced_pim;
  CountOp last_pim;  // the last untraced pim count
  const Iterations its = run_iterations(opt, tracer, [&](bool traced) {
    for (int b = 0; b < 2; ++b) {
      const bool is_pim = b == 1;
      for (int k = 0; k < kCountsPerIteration[b]; ++k) {
        CountOp op = count_file(tracer, path, kBackends[b], shuffle_seed);
        ++out.attempted;
        if (!op.report.exact || op.report.rounded() != reference) {
          ++out.failed;
          out.fail_check(std::string(kBackends[b]) + " estimate " +
                         std::to_string(op.report.estimate) +
                         " != reference " + std::to_string(reference));
        }
        if (traced) {
          (is_pim ? traced_pim : traced_cpu) = std::move(op);
        } else {
          (is_pim ? pim_wall : cpu_wall).push_back(op.wall_s);
          if (is_pim) last_pim = std::move(op);
        }
      }
    }
  });

  const double e = static_cast<double>(edges);
  const double cpu_rate = e / median(cpu_wall);
  const double pim_rate = e / median(pim_wall);
  const double modeled_s =
      split_clocks(last_pim.report, last_pim.count_s).modeled_s();
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "static-file: %llu edges, reference %llu triangles, %zu "
                "untraced iterations",
                static_cast<unsigned long long>(edges),
                static_cast<unsigned long long>(reference),
                its.untraced_s.size());
  out.note(buf);

  if (!opt.trace) {
    out.set("setup_s", setup_s, "s");
    out.set("items_per_s", 2.0 * e / (median(cpu_wall) + median(pim_wall)),
            "1/s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.note_metric("cpu-fast.edges_per_s", cpu_rate, "1/s");
    out.note_metric("pim.edges_per_s", pim_rate, "1/s");
    out.note_metric("pim.modeled_s", modeled_s, "s");
    return;
  }

  // Per-layer metrics: mean time per call from the traced spans, plus the
  // counters of the last traced reports.
  const std::vector<SpanRecord> spans = tracer.records();
  const auto mean_s = [&](const char* layer, const std::string& name) {
    return span_sum(spans, layer, name).mean_s();
  };
  out.set("graph.read_s", mean_s("graph", "read_coo"), "s");
  out.set("graph.dedup_s", mean_s("graph", "remove_loops_and_duplicates"),
          "s");
  out.set("graph.shuffle_s", mean_s("graph", "shuffle_edges"), "s");
  out.set("engine.make_s", mean_s("engine", "make_engine"), "s");
  out.set("engine.cpu-fast.count_s", mean_s("engine", "cpu-fast.count"), "s");
  out.set("engine.pim.count_s", mean_s("engine", "pim.count"), "s");
  out.set("engine.pim.destroy_s", mean_s("engine", "pim.destroy"), "s");

  const CountOp& cpu = traced_cpu;
  const CountOp& pim = traced_pim;
  out.set("graph.dropped_edges", static_cast<double>(cpu.dropped), "count");
  out.set("cpufast.build_s", cpu.report.times.ingest_s, "s");
  out.set("cpufast.count_s", cpu.report.times.count_s, "s");
  out.set("cpufast.bitmap_probes",
          static_cast<double>(cpu.report.kernel.bitmap_probes), "count");
  const PimClocks clocks = split_clocks(pim.report, pim.count_s);
  set_pim_layer_metrics(out, pim.report, clocks);
  out.set("tc.dirty_full_recounts",
          static_cast<double>(pim.report.dirty_full_recounts), "count");
  out.set("tc.incremental_recounts", pim.report.used_incremental ? 1.0 : 0.0,
          "count");

  out.set("cpu-fast.edges_per_s", cpu_rate, "1/s");
  out.set("pim.edges_per_s", pim_rate, "1/s");
  out.set("pim.modeled_s", modeled_s, "s");
  out.set("trace.overhead_frac",
          tracing_overhead(its.traced_s, its.untraced_s), "ratio");
  report_trace(opt, tracer, its.traced, out);
}

}  // namespace perfbench
