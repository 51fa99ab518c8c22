// Regenerates Table 3: relative error of the triangle estimate when keeping
// each edge with probability p in {0.5, 0.25, 0.1, 0.01} (uniform sampling
// at the host, DOULION-style, corrected by 1/p^3).
//
// Paper claims: errors typically stay below ~2.5% even at p = 0.01 — except
// V1r, whose 49 triangles are so few that sampling destroys them (up to
// 100% error).
//
// Scale note: the DOULION estimator's relative standard deviation is
// ~ sqrt((1/p^3 - 1) / T) for T surviving-independent triangles, so the
// *absolute* triangle count controls accuracy.  Our stand-ins carry 1e4-1e6
// triangles instead of the paper's 1e8-1e10; the bench therefore prints
// measured error next to the theory prediction at our scale AND the theory
// prediction at the published triangle counts — the latter is the paper's
// <2.5% row.
#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_util.hpp"
#include "common/math_util.hpp"
#include "graph/reference_tc.hpp"
#include "tc/host.hpp"

namespace {

/// First-order relative std of the DOULION estimate.
double theory_error(double triangles, double p) {
  if (triangles <= 0.0) return 1.0;
  const double blowup = 1.0 / (p * p * p) - 1.0;
  return std::sqrt(blowup / triangles);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pimtc;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header(
      "Table 3: relative error vs uniform-sampling keep probability p",
      "errors stay low (<~2.5%) down to p=0.01 at published triangle "
      "counts; V1r blows up because it has almost no triangles",
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
  bool v1r_blows_up = false;

  for (const auto g : graph::kAllPaperGraphs) {
    const graph::EdgeList list = bench::load_graph(g, opt);
    const auto& info = graph::paper_graph_info(g);
    const auto truth =
        static_cast<double>(graph::reference_triangle_count(list));

    std::printf("%-14s", info.name.data());
    for (const double p : ps) {
      // Median over three seeds: a single draw sits 1-3 std from truth.
      std::vector<double> errs;
      for (std::uint64_t s = 0; s < 3; ++s) {
        engine::EngineConfig cfg;
        cfg.num_colors = opt.colors;
        cfg.uniform_p = p;
        cfg.seed = derive_seed(opt.seed,
                               static_cast<std::uint64_t>(p * 1000) + s);
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

      if (g == graph::PaperGraph::kV1r) {
        if (err > 0.10) v1r_blows_up = true;
      } else if (err > std::max(4.0 * theory, 0.025)) {
        measured_tracks_theory = false;
      }
    }
    // The paper's p=0.01 row, predicted from the published triangle count.
    const double paper_theory =
        theory_error(static_cast<double>(info.paper_triangles), 0.01);
    std::printf("  %13.2f%%\n", paper_theory * 100.0);
    if (g != graph::PaperGraph::kV1r && paper_theory > 0.06) {
      paper_scale_claim = false;
    }
  }

  std::printf("\nShape check: measured error within 4x of estimator theory "
              "at this scale: %s; theory at published triangle counts "
              "is in the paper's small-error regime (paper: 0.13-2.4%%): %s; V1r degrades "
              "badly: %s\n",
              measured_tracks_theory ? "HOLDS" : "VIOLATED",
              paper_scale_claim ? "HOLDS" : "VIOLATED",
              v1r_blows_up ? "HOLDS" : "WEAK");
  return 0;
}
