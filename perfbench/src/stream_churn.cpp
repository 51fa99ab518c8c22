// stream-churn: a fully-dynamic stream through apply() + recount().
//
// Set-up builds a seeded ba-hubs graph of about 170k edges in memory (the
// inputs and the exact final count are untimed).  Each pass sends it as 20
// insert batches, then deletes 20% of it in 10 batches, every batch through
// apply() as `serve` does and each followed by recount().  Backends: cpu-fast
// (exact) and pim with C = auto, incremental recounts, Misra-Gries on and a
// reservoir capacity of 1000 edges, below most cores' load, so reservoirs
// overflow and random-pairing deletions run.
#include <cmath>
#include <memory>
#include <unordered_set>

#include "common/prng.hpp"
#include "engine/registry.hpp"
#include "graph/preprocess.hpp"
#include "graph/reference_tc.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace pimtc;

// Body edges of the ba-hubs graph; the hubs bring it to ~170k edges.
constexpr EdgeCount kBodyEdges = 148'000;
constexpr std::size_t kInsertBatches = 20;
constexpr std::size_t kDeleteBatches = 10;
constexpr double kDeleteFrac = 0.2;
constexpr std::uint64_t kReservoirCapacity = 1000;
constexpr int kSetupReps = 9;
const char* const kBackends[] = {"cpu-fast", "pim"};
// Passes per iteration: cpu-fast's pass is the noisier one, so it gets two.
constexpr int kPassesPerIteration[] = {2, 1};

engine::EngineConfig config_for(const std::string& backend,
                                std::uint64_t seed) {
  engine::EngineConfig cfg;
  cfg.seed = seed;
  if (backend == "pim") {
    cfg.num_colors = 0;
    cfg.incremental = true;
    cfg.misra_gries_enabled = true;
    cfg.sample_capacity_edges = kReservoirCapacity;
  }
  return cfg;
}

std::vector<std::vector<EdgeUpdate>> split(const std::vector<EdgeUpdate>& all,
                                           std::size_t parts) {
  std::vector<std::vector<EdgeUpdate>> out;
  const std::size_t per = (all.size() + parts - 1) / parts;
  for (std::size_t off = 0; off < all.size(); off += per) {
    const std::size_t end = std::min(all.size(), off + per);
    out.emplace_back(all.begin() + static_cast<std::ptrdiff_t>(off),
                     all.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return out;
}

/// One backend's pass over every batch.
struct Pass {
  double calls_s = 0.0;       ///< host seconds of every apply + recount
  engine::CountReport final;  ///< last recount, kernel stats summed
  std::uint64_t incremental_recounts = 0;
};

Pass run_pass(Tracer& tracer, const std::string& backend, std::uint64_t seed,
              const std::vector<std::vector<EdgeUpdate>>& batches) {
  Pass p;
  std::unique_ptr<engine::TriangleCountEngine> eng;
  {
    Tracer::Span s(tracer, "engine", "make_engine");
    eng = engine::make_engine(backend, config_for(backend, seed));
  }
  engine::KernelStats kernel;
  std::uint32_t dirty = 0;
  for (const std::vector<EdgeUpdate>& batch : batches) {
    {
      Tracer::Span s(tracer, "engine", backend + ".apply");
      eng->apply(batch);
      p.calls_s += s.end();
    }
    {
      Tracer::Span s(tracer, "engine", backend + ".recount");
      p.final = eng->recount();
      p.calls_s += s.end();
    }
    const engine::KernelStats& k = p.final.kernel;
    kernel.merge_isects += k.merge_isects;
    kernel.gallop_isects += k.gallop_isects;
    kernel.bitmap_probes += k.bitmap_probes;
    kernel.instructions += k.instructions;
    kernel.count_instructions += k.count_instructions;
    dirty += p.final.dirty_full_recounts;
    p.incremental_recounts += p.final.used_incremental ? 1 : 0;
  }
  p.final.kernel = kernel;
  p.final.dirty_full_recounts = dirty;
  Tracer::Span s(tracer, "engine", backend + ".destroy");
  eng.reset();
  return p;
}

}  // namespace

void run_stream_churn(const Options& opt, Tracer& tracer, RunResult& out) {
  const std::uint64_t engine_seed = derive_seed(opt.seed, 2);
  graph::EdgeList g = ba_hubs(kBodyEdges, derive_seed(opt.seed, 1));
  graph::preprocess(g, engine_seed);  // shuffled insert order
  const std::vector<EdgeUpdate> churn =
      churn_deletes(g, kDeleteFrac, derive_seed(opt.seed, 3));

  std::vector<EdgeUpdate> inserts;
  inserts.reserve(g.num_edges());
  for (const Edge& e : g.edges()) inserts.push_back(insert_of(e));
  std::vector<std::vector<EdgeUpdate>> batches = split(inserts, kInsertBatches);
  for (auto& b : split(churn, kDeleteBatches)) batches.push_back(std::move(b));
  const double updates = static_cast<double>(inserts.size() + churn.size());

  // The exact count of the final edge set (untimed).
  std::unordered_set<std::uint64_t> deleted;
  for (const EdgeUpdate& u : churn) {
    deleted.insert(edge_key(u.edge.canonical()));
  }
  graph::EdgeList final_graph;
  for (const Edge& e : g.edges()) {
    if (!deleted.contains(edge_key(e.canonical()))) final_graph.push_back(e);
  }
  const TriangleCount exact = graph::reference_triangle_count(final_graph);

  const double setup_s =
      engines_setup_s(tracer, kSetupReps, [&](const std::string& backend) {
        return config_for(backend, engine_seed);
      });

  std::vector<double> cpu_calls_s;
  std::vector<double> pim_calls_s;
  Pass last_pim;
  Pass traced_cpu;
  Pass traced_pim;
  const Iterations its = run_iterations(opt, tracer, [&](bool traced) {
    for (int b = 0; b < 2; ++b) {
      const bool is_pim = b == 1;
      for (int k = 0; k < kPassesPerIteration[b]; ++k) {
        Pass pass = run_pass(tracer, kBackends[b], engine_seed, batches);
        ++out.attempted;
        if (is_pim) {
          const double err =
              std::abs(pass.final.estimate - static_cast<double>(exact)) /
              static_cast<double>(exact);
          if (!std::isfinite(err)) {
            ++out.failed;
            out.fail_check("pim relative error is not finite");
          }
        } else if (!pass.final.exact || pass.final.rounded() != exact) {
          ++out.failed;
          out.fail_check("cpu-fast final estimate " +
                         std::to_string(pass.final.estimate) + " != exact " +
                         std::to_string(exact));
        }
        if (traced) {
          (is_pim ? traced_pim : traced_cpu) = std::move(pass);
        } else {
          (is_pim ? pim_calls_s : cpu_calls_s).push_back(pass.calls_s);
          if (is_pim) last_pim = std::move(pass);
        }
      }
    }
  });

  const double cpu_s = median(cpu_calls_s);
  const double pim_s = median(pim_calls_s);
  const PimClocks clocks = split_clocks(last_pim.final, last_pim.calls_s);
  const double rel_err =
      std::abs(last_pim.final.estimate - static_cast<double>(exact)) /
      static_cast<double>(exact);
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "stream-churn: %zu batches, %.0f updates, exact %llu, pim "
                "estimate %.1f, %llu of %u cores overflowed, %zu untraced "
                "iterations",
                batches.size(), updates, static_cast<unsigned long long>(exact),
                last_pim.final.estimate,
                static_cast<unsigned long long>(
                    last_pim.final.reservoir_overflows),
                last_pim.final.num_units, its.untraced_s.size());
  out.note(buf);

  if (!opt.trace) {
    out.set("setup_s", setup_s, "s");
    out.set("items_per_s", 2.0 * updates / (cpu_s + pim_s), "1/s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.note_metric("cpu-fast.updates_per_s", updates / cpu_s, "1/s");
    out.note_metric("pim.updates_per_s", updates / pim_s, "1/s");
    out.note_metric("pim.modeled_s", clocks.modeled_s(), "s");
    out.note_metric("pim.rel_err", rel_err, "ratio");
    return;
  }

  // Per-layer times per pass, from the traced spans.
  const std::vector<SpanRecord> spans = tracer.records();
  const auto per_pass = [&](int b, const std::string& call) {
    return span_sum(spans, "engine", kBackends[b] + ("." + call)).total_s /
           static_cast<double>(its.traced_s.size() *
                               kPassesPerIteration[b]);
  };
  out.set("engine.make_s", span_sum(spans, "engine", "make_engine").mean_s(),
          "s");
  out.set("engine.pim.destroy_s", per_pass(1, "destroy"), "s");
  for (int b = 0; b < 2; ++b) {
    const std::string name = kBackends[b];
    out.set("engine." + name + ".apply_s", per_pass(b, "apply"), "s");
    out.set("engine." + name + ".recount_s", per_pass(b, "recount"), "s");
  }
  out.set("cpufast.build_s", traced_cpu.final.times.ingest_s, "s");
  out.set("cpufast.count_s", traced_cpu.final.times.count_s, "s");
  out.set("cpufast.bitmap_probes",
          static_cast<double>(traced_cpu.final.kernel.bitmap_probes), "count");
  set_pim_layer_metrics(out, traced_pim.final,
                        split_clocks(traced_pim.final, traced_pim.calls_s));
  out.set("tc.dirty_full_recounts",
          static_cast<double>(traced_pim.final.dirty_full_recounts), "count");
  out.set("tc.incremental_recounts",
          static_cast<double>(traced_pim.incremental_recounts), "count");

  out.set("cpu-fast.updates_per_s", updates / cpu_s, "1/s");
  out.set("pim.updates_per_s", updates / pim_s, "1/s");
  out.set("pim.modeled_s", clocks.modeled_s(), "s");
  out.set("pim.rel_err", rel_err, "ratio");
  out.set("trace.overhead_frac",
          tracing_overhead(its.traced_s, its.untraced_s), "ratio");
  report_trace(opt, tracer, its.traced, out);
}

}  // namespace perfbench
