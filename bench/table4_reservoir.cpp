// Regenerates Table 4: relative error when the per-core sample capacity M
// is limited to a fraction p of the expected worst-case per-core load
// 6|E|/C^2, forcing reservoir sampling (TRIEST-style, corrected by
// t(t-1)(t-2)/(M(M-1)(M-2)) per core).
//
// Paper claims: errors stay below ~0.6% in most cases — lower than uniform
// sampling at the same budget (sampling without replacement has less
// variance, and the per-core correction uses the exact t_d) — with V1r
// again the outlier.
//
// Scale note: as for Table 3, the achievable error floor is set by the
// absolute triangle count; see the theory columns.
#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_util.hpp"
#include "common/math_util.hpp"
#include "graph/reference_tc.hpp"
#include "tc/host.hpp"

namespace {

/// First-order relative std of a TRIEST-style estimate at keep ratio ~p per
/// core (sub-Bernoulli variance; treated as DOULION at p for an upper
/// bound).
double theory_error(double triangles, double p) {
  if (triangles <= 0.0) return 1.0;
  return std::sqrt((1.0 / (p * p * p) - 1.0) / triangles);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pimtc;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header(
      "Table 4: relative error vs reservoir capacity fraction p",
      "errors stay very low (<~0.6% typical at published scale); V1r is "
      "the outlier",
      opt);

  std::vector<double> ps = {0.5, 0.25, 0.1, 0.01};
  if (opt.quick) ps = {0.5, 0.1};

  std::printf("%-14s", "graph");
  for (const double p : ps) std::printf("  %15.2f", p);
  std::printf("  %14s\n", "paper@0.01");
  std::printf("%-14s", "");
  for (std::size_t i = 0; i < ps.size(); ++i) {
    std::printf("  %15s", "meas / theory");
  }
  std::printf("  %14s\n", "theory");

  bool measured_tracks_theory = true;
  bool paper_scale_claim = true;

  for (const auto g : graph::kAllPaperGraphs) {
    const graph::EdgeList list = bench::load_graph(g, opt);
    const auto& info = graph::paper_graph_info(g);
    const auto truth =
        static_cast<double>(graph::reference_triangle_count(list));
    const double expected_max =
        6.0 * static_cast<double>(list.num_edges()) /
        (static_cast<double>(opt.colors) * opt.colors);

    std::printf("%-14s", info.name.data());
    for (const double p : ps) {
      // Median over three seeds: a single draw sits 1-3 std from truth.
      std::vector<double> errs;
      for (std::uint64_t s = 0; s < 3; ++s) {
        engine::EngineConfig cfg;
        cfg.num_colors = opt.colors;
        cfg.sample_capacity_edges =
            static_cast<std::uint64_t>(std::max(8.0, expected_max * p));
        cfg.seed = derive_seed(opt.seed,
                               static_cast<std::uint64_t>(p * 1e4) + s);
        tc::PimTriangleCounter counter(cfg);
        const engine::CountReport r = counter.count(list);
        errs.push_back(relative_error(r.estimate, truth));
      }
      std::sort(errs.begin(), errs.end());
      const double err = errs[1];
      // theory_error assumes independent triangle survival; triangles that
      // share hub edges survive together, so hub-heavy graphs can exceed
      // the 1-sigma prediction — hence the 4x acceptance band below.
      const double theory = theory_error(truth, p);
      std::printf("  %6.2f%% /%6.2f%%", err * 100.0, theory * 100.0);

      if (g != graph::PaperGraph::kV1r &&
          err > std::max(4.0 * theory, 0.025)) {
        measured_tracks_theory = false;
      }
    }
    const double paper_theory =
        theory_error(static_cast<double>(info.paper_triangles), 0.01);
    std::printf("  %13.2f%%\n", paper_theory * 100.0);
    if (g != graph::PaperGraph::kV1r && paper_theory > 0.06) {
      paper_scale_claim = false;
    }
  }

  std::printf("\nShape check: measured error within 4x of estimator theory "
              "at this scale: %s; theory at published triangle counts "
              "is in the paper's small-error regime (paper: <=1%%): %s\n",
              measured_tracks_theory ? "HOLDS" : "VIOLATED",
              paper_scale_claim ? "HOLDS" : "VIOLATED");
  return 0;
}
