// Regenerates Figure 4: execution time and speedup when scaling the number
// of PIM cores via the color count C (#cores = binom(C+2, 3)).
//
// Paper claims: (a) counting time drops as cores are added for the large
// graphs; (b) the smallest graph (LiveJournal) eventually *regresses*
// because allocation and transfer overheads outgrow the shrinking kernel
// time.  Times include all three modeled phases, as in the paper's
// Figure 4; the measured host orchestration time is its own column and
// never enters the total, the speedup or the shape check.
//
// Part 2 goes beyond the paper: the partition-planner study.  C is derived
// by the auto-selector from a swept machine budget, and each placement
// policy runs on a hub-heavy barabasi_albert + add_hubs graph, reporting
// per-policy load_imbalance and scatter padding.  Expected shape: the
// load-aware policies shrink the wire/payload pad and the count phase
// (heavy cores boot first, hiding rank launch skew) vs identity, while the
// estimate is bit-identical across all three.
#include <vector>

#include "bench_util.hpp"
#include "common/math_util.hpp"
#include "graph/generators.hpp"
#include "tc/host.hpp"

int main(int argc, char** argv) {
  using namespace pimtc;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header(
      "Figure 4: time & speedup vs number of PIM cores (colors swept)",
      "more cores help big graphs; the smallest graph regresses at high "
      "core counts (overhead-bound)",
      opt);

  const graph::PaperGraph graphs[] = {
      graph::PaperGraph::kKronecker23, graph::PaperGraph::kLiveJournal,
      graph::PaperGraph::kOrkut, graph::PaperGraph::kWikipediaEdit};
  std::vector<std::uint32_t> colors = {4, 8, 13, 18, 23};
  if (opt.quick) colors = {4, 13, 23};

  bool livejournal_regresses = false;
  bool kron_scales = false;

  for (const auto g : graphs) {
    const graph::EdgeList list = bench::load_graph(g, opt);
    std::printf("\n%s (%zu edges)\n", graph::paper_graph_info(g).name.data(),
                list.num_edges());
    std::printf("  %7s %7s | %9s %10s %10s %10s | %8s | %8s\n", "colors",
                "cores", "setup(ms)", "sample(ms)", "count(ms)", "total(ms)",
                "speedup", "host(ms)");

    double baseline_total = 0.0;
    double best_total = 1e300;
    double last_total = 0.0;
    for (const std::uint32_t c : colors) {
      engine::EngineConfig cfg;
      cfg.num_colors = c;
      cfg.seed = opt.seed;
      tc::PimTriangleCounter counter(cfg);
      const engine::CountReport r = counter.count(list);
      const double total = r.times.modeled_s() * 1e3;
      if (baseline_total == 0.0) baseline_total = total;
      best_total = std::min(best_total, total);
      last_total = total;

      std::printf("  %7u %7llu | %9.2f %10.2f %10.2f %10.2f | %7.2fx | %8.2f\n",
                  c, static_cast<unsigned long long>(num_triplets(c)),
                  r.times.setup_s * 1e3, r.times.ingest_s * 1e3,
                  r.times.count_s * 1e3, total, baseline_total / total,
                  r.times.host_s * 1e3);
    }
    if (g == graph::PaperGraph::kLiveJournal &&
        last_total > best_total * 1.05) {
      livejournal_regresses = true;
    }
    if (g == graph::PaperGraph::kKronecker23 &&
        last_total < baseline_total / 1.5) {
      kron_scales = true;
    }
  }

  std::printf("\nShape check: Kronecker keeps speeding up with more cores: "
              "%s;  LiveJournal regresses past its sweet spot: %s\n",
              kron_scales ? "HOLDS" : "WEAK",
              livejournal_regresses ? "HOLDS" : "WEAK");

  // ---- Part 2: partition planner (auto colors x placement policy) ----------
  graph::EdgeList hubby = graph::gen::barabasi_albert(
      static_cast<NodeId>(20000 * opt.scale) + 2000, 5, opt.seed + 1);
  graph::gen::add_hubs(hubby, 3, hubby.num_nodes() / 4, opt.seed + 2);
  graph::preprocess(hubby, opt.seed + 3);
  std::printf("\nPartition planner on hub-heavy BA graph (%zu edges, "
              "C auto-selected per machine budget, 8 DPUs/rank):\n",
              hubby.num_edges());
  std::printf("  %7s %3s %5s %5s %10s %10s %10s %8s %6s %9s  %s\n",
              "maxdpus", "C", "cores", "util", "ingest(ms)", "count(ms)",
              "total(ms)", "host(ms)", "pad x", "imbalance", "placement");

  const color::PlacementPolicy policies[] = {
      color::PlacementPolicy::kIdentity,
      color::PlacementPolicy::kKindInterleave,
      color::PlacementPolicy::kGreedyBalance};
  std::vector<std::uint32_t> budgets = {56, 120, 220};
  if (opt.quick) budgets = {120};

  bool pad_shrinks = true;
  bool count_shrinks = true;
  bool estimates_identical = true;
  for (const std::uint32_t budget : budgets) {
    double identity_pad = 0.0;
    double identity_count = 0.0;
    double identity_estimate = 0.0;
    for (const auto policy : policies) {
      pim::PimSystemConfig machine;
      machine.mram_bytes = 8ull << 20;
      machine.dpus_per_rank = 8;
      machine.max_dpus = budget;
      engine::EngineConfig cfg;
      cfg.num_colors = 0;  // auto: fill the budget
      cfg.placement = policy;
      cfg.seed = opt.seed;
      cfg.pim = machine;
      tc::PimTriangleCounter counter(cfg);
      const engine::CountReport r = counter.count(hubby);
      const double pad = r.transfers.push_padding();
      if (policy == color::PlacementPolicy::kIdentity) {
        identity_pad = pad;
        identity_count = r.times.count_s;
        identity_estimate = r.estimate;
      } else {
        if (policy == color::PlacementPolicy::kGreedyBalance) {
          pad_shrinks &= pad < identity_pad;
          count_shrinks &= r.times.count_s <= identity_count;
        }
        estimates_identical &= r.estimate == identity_estimate;
      }
      std::printf("  %7u %3u %5u %4.0f%% %10.2f %10.2f %10.2f %8.2f %6.2f "
                  "%8.2fx  %s\n",
                  budget, r.num_colors, r.num_units,
                  r.dpu_utilization * 100.0,
                  r.times.ingest_s * 1e3, r.times.count_s * 1e3,
                  r.times.modeled_s() * 1e3, r.times.host_s * 1e3, pad,
                  r.load_imbalance, r.placement.c_str());
    }
  }
  std::printf("\nShape check: greedy_balance shrinks scatter padding vs "
              "identity: %s; greedy_balance count time <= identity: %s; "
              "estimates bit-identical across placements: %s\n",
              pad_shrinks ? "HOLDS" : "VIOLATED",
              count_shrinks ? "HOLDS" : "WEAK",
              estimates_identical ? "HOLDS" : "VIOLATED");
  return 0;
}
