// Regenerates Figure 5: exact counting time while sweeping the Misra-Gries
// parameters K (summary capacity per host thread) and t (nodes remapped on
// the PIM cores).
//
// Paper claims: graphs with extreme hubs (Kronecker, WikipediaEdit) speed
// up substantially, with diminishing returns in K and t; graphs without
// hubs (V1r, LiveJournal) see no benefit — the remap cost only adds time.
#include <vector>

#include "bench_util.hpp"
#include "tc/host.hpp"

int main(int argc, char** argv) {
  using namespace pimtc;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header(
      "Figure 5: counting time vs Misra-Gries parameters K and t",
      "hub-heavy graphs speed up with remapping; flat graphs only pay "
      "overhead",
      opt);

  const graph::PaperGraph graphs[] = {
      graph::PaperGraph::kKronecker23, graph::PaperGraph::kWikipediaEdit,
      graph::PaperGraph::kLiveJournal, graph::PaperGraph::kV1r};

  struct Setting {
    std::uint32_t k;
    std::uint32_t t;
  };
  std::vector<Setting> settings = {{128, 8},  {128, 32},  {1024, 8},
                                   {1024, 32}, {4096, 8}, {4096, 64}};
  if (opt.quick) settings = {{128, 8}, {1024, 32}};

  double wiki_best_speedup = 0.0;
  double v1r_best_speedup = 0.0;

  for (const auto g : graphs) {
    const graph::EdgeList list = bench::load_graph(g, opt);
    std::printf("\n%s (%zu edges)\n", graph::paper_graph_info(g).name.data(),
                list.num_edges());

    engine::EngineConfig base;
    base.num_colors = opt.colors;
    base.seed = opt.seed;

    tc::PimTriangleCounter off(base);
    const engine::CountReport r_off = off.count(list);
    const double t_off = r_off.times.count_s * 1e3;
    std::printf("  %-18s %12.2f ms   (count phase, baseline)\n", "MG off",
                t_off);

    double best = t_off;
    for (const Setting& s : settings) {
      engine::EngineConfig cfg = base;
      cfg.misra_gries_enabled = true;
      cfg.mg_capacity = s.k;
      cfg.mg_top = s.t;
      tc::PimTriangleCounter counter(cfg);
      const engine::CountReport r = counter.count(list);
      const double ms = r.times.count_s * 1e3;
      best = std::min(best, ms);
      std::printf("  K=%-5u t=%-7u %12.2f ms   (%.2fx vs off)%s\n", s.k, s.t,
                  ms, t_off / ms,
                  r.rounded() == r_off.rounded() ? "" : "  <-- COUNT MISMATCH");
    }
    const double speedup = t_off / best;
    if (g == graph::PaperGraph::kWikipediaEdit) wiki_best_speedup = speedup;
    if (g == graph::PaperGraph::kV1r) v1r_best_speedup = speedup;
  }

  std::printf("\nShape check: WikipediaEdit best MG speedup %.2fx (paper: "
              "large); V1r best %.2fx (paper: none, ~1.0 or below) -> %s\n",
              wiki_best_speedup, v1r_best_speedup,
              wiki_best_speedup > 1.15 && v1r_best_speedup < 1.10
                  ? "HOLDS"
                  : "WEAK/VIOLATED");
  return 0;
}
