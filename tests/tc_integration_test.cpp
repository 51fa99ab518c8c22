// End-to-end tests of the full PIM triangle-counting pipeline: coloring
// partition + transfers + reservoir + kernel + statistical corrections,
// validated against the trusted reference counter.
#include <gtest/gtest.h>

#include <malloc.h>

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <tuple>

#include "common/math_util.hpp"
#include "engine/registry.hpp"
#include "graph/generators.hpp"
#include "graph/paper_graphs.hpp"
#include "graph/preprocess.hpp"
#include "graph/reference_tc.hpp"
#include "tc/host.hpp"
#include "tc/kernel.hpp"

namespace pimtc::tc {
namespace {

pim::PimSystemConfig small_banks() {
  pim::PimSystemConfig cfg;
  cfg.mram_bytes = 8ull << 20;  // keep simulated banks small in tests
  return cfg;
}

engine::EngineConfig exact_config(std::uint32_t colors,
                                  std::uint64_t seed = 42) {
  engine::EngineConfig cfg;
  cfg.num_colors = colors;
  cfg.seed = seed;
  cfg.pim = small_banks();
  return cfg;
}

// ---- exactness across colors / graphs / seeds -------------------------------

class ExactCountTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, int>> {};

TEST_P(ExactCountTest, MatchesReferenceOnErdosRenyi) {
  const auto [colors, seed] = GetParam();
  graph::EdgeList g = graph::gen::erdos_renyi(
      600, 4000, static_cast<std::uint64_t>(seed) + 100);
  graph::preprocess(g, 7);
  const TriangleCount expected = graph::reference_triangle_count(g);

  PimTriangleCounter counter(
      exact_config(colors, static_cast<std::uint64_t>(seed)));
  const engine::CountReport result = counter.count(g);
  EXPECT_TRUE(result.exact);
  EXPECT_EQ(result.rounded(), expected)
      << "colors=" << colors << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    ColorsAndSeeds, ExactCountTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 6u, 8u),
                       ::testing::Values(1, 2, 3)));

TEST(TcIntegrationTest, ExactOnStructuredGraphs) {
  for (const auto& [g, expected] :
       std::vector<std::pair<graph::EdgeList, TriangleCount>>{
           {graph::gen::complete(30), binomial(30, 3)},
           {graph::gen::wheel(40), 39},
           {graph::gen::cycle(50), 0},
           {graph::gen::star(100), 0},
       }) {
    PimTriangleCounter counter(exact_config(4));
    const engine::CountReport result = counter.count(g);
    EXPECT_TRUE(result.exact);
    EXPECT_EQ(result.rounded(), expected);
  }
}

TEST(TcIntegrationTest, ExactOnSkewedGraph) {
  graph::EdgeList g = graph::gen::barabasi_albert(800, 6, 3);
  graph::preprocess(g, 5);
  const TriangleCount expected = graph::reference_triangle_count(g);
  PimTriangleCounter counter(exact_config(5));
  EXPECT_EQ(counter.count(g).rounded(), expected);
}

// The kernels' host scratch (copies of a bank's arrays, sized for the
// largest bank a launch worker ran) lives only as long as the recount: once
// the counter is destroyed the heap holds no more than before it was built.
// Sanitizer builds route malloc around glibc's statistics, which then read
// flat and the check holds trivially.
TEST(TcIntegrationTest, NoHostScratchStaysResidentAfterTheCounter) {
  const auto heap_in_use = [] {
    const struct mallinfo2 m = mallinfo2();
    return m.uordblks + m.hblkhd;
  };
  const auto count_once = [](const graph::EdgeList& g) {
    PimTriangleCounter counter(exact_config(1));
    EXPECT_EQ(counter.count(g).rounded(), graph::reference_triangle_count(g));
  };
  graph::EdgeList tiny = graph::gen::erdos_renyi(50, 200, 3);
  graph::preprocess(tiny, 3);
  graph::EdgeList big = graph::gen::barabasi_albert(20000, 5, 3);
  graph::preprocess(big, 3);
  count_once(tiny);  // creates the process-wide thread pool and statics

  const std::size_t before = heap_in_use();
  count_once(big);  // one bank of ~100k edges: megabytes of scratch
  EXPECT_LT(heap_in_use(), before + (256u << 10));
}

TEST(TcIntegrationTest, ExactWithMisraGriesRemapEnabled) {
  // MG remapping must never change an exact count (isomorphism).
  graph::EdgeList g = graph::gen::barabasi_albert(600, 5, 11);
  graph::preprocess(g, 13);
  const TriangleCount expected = graph::reference_triangle_count(g);

  engine::EngineConfig cfg = exact_config(4);
  cfg.misra_gries_enabled = true;
  cfg.mg_capacity = 64;
  cfg.mg_top = 12;
  PimTriangleCounter counter(cfg);
  const engine::CountReport result = counter.count(g);
  EXPECT_TRUE(result.exact);
  EXPECT_EQ(result.rounded(), expected);
}

TEST(TcIntegrationTest, MonochromaticCorrectionIsExercised) {
  // With a single color every triangle is monochromatic and counted by the
  // one DPU; with two colors monochromatic triangles are counted twice and
  // corrected.  Both must give the exact result.
  graph::EdgeList g = graph::gen::complete(25);
  const TriangleCount expected = binomial(25, 3);
  for (const std::uint32_t colors : {1u, 2u}) {
    PimTriangleCounter counter(exact_config(colors));
    EXPECT_EQ(counter.count(g).rounded(), expected) << "C=" << colors;
  }
}

TEST(TcIntegrationTest, RawTotalOvercountsWithoutCorrection) {
  // Sanity check that the correction is doing real work: the raw sum over
  // cores must exceed the true count whenever monochromatic triangles exist.
  graph::EdgeList g = graph::gen::complete(20);
  PimTriangleCounter counter(exact_config(3));
  const engine::CountReport result = counter.count(g);
  EXPECT_GT(result.raw_total, result.rounded());
}

// ---- replication / load facts ------------------------------------------------

TEST(TcIntegrationTest, EdgesReplicatedExactlyCTimes) {
  graph::EdgeList g = graph::gen::erdos_renyi(300, 2000, 1);
  graph::preprocess(g, 2);
  for (const std::uint32_t colors : {2u, 5u, 7u}) {
    PimTriangleCounter counter(exact_config(colors));
    const engine::CountReport result = counter.count(g);
    EXPECT_EQ(result.edges_replicated,
              static_cast<std::uint64_t>(colors) * g.num_edges());
  }
}

TEST(TcIntegrationTest, UsesBinomialNumberOfDpus) {
  graph::EdgeList g = graph::gen::erdos_renyi(100, 500, 1);
  for (const std::uint32_t colors : {1u, 3u, 6u}) {
    PimTriangleCounter counter(exact_config(colors));
    EXPECT_EQ(counter.count(g).num_units, num_triplets(colors));
  }
}

TEST(TcIntegrationTest, SelfLoopsIgnored) {
  graph::EdgeList g = graph::gen::complete(10);
  g.push_back({3, 3});
  g.push_back({7, 7});
  PimTriangleCounter counter(exact_config(3));
  EXPECT_EQ(counter.count(g).rounded(), binomial(10, 3));
}

// ---- uniform sampling ----------------------------------------------------------

TEST(TcIntegrationTest, UniformSamplingApproximates) {
  graph::EdgeList g = graph::gen::community(3000, 60, 0.5, 2000, 21);
  graph::preprocess(g, 22);
  const auto truth =
      static_cast<double>(graph::reference_triangle_count(g));

  engine::EngineConfig cfg = exact_config(3);
  cfg.uniform_p = 0.5;
  // Average over a few seeds: DOULION at p=0.5 on a triangle-rich graph
  // should land within a few percent.
  double sum = 0;
  const int trials = 5;
  for (int s = 0; s < trials; ++s) {
    cfg.seed = 1000 + s;
    PimTriangleCounter counter(cfg);
    const engine::CountReport r = counter.count(g);
    EXPECT_FALSE(r.exact);
    sum += r.estimate;
  }
  EXPECT_NEAR(sum / trials, truth, truth * 0.08);
}

TEST(TcIntegrationTest, UniformSamplingReducesTransferVolume) {
  graph::EdgeList g = graph::gen::erdos_renyi(2000, 20000, 5);
  engine::EngineConfig cfg = exact_config(3);
  cfg.uniform_p = 0.1;
  PimTriangleCounter counter(cfg);
  const engine::CountReport r = counter.count(g);
  // ~10% of edges kept (binomial concentration), each replicated C times.
  EXPECT_NEAR(static_cast<double>(r.edges_kept), 2000.0, 300.0);
  EXPECT_EQ(r.edges_replicated, 3 * r.edges_kept);
}

// ---- reservoir sampling ---------------------------------------------------------

TEST(TcIntegrationTest, ReservoirKicksInWhenCapacityLimited) {
  graph::EdgeList g = graph::gen::community(2000, 50, 0.5, 1000, 31);
  graph::preprocess(g, 32);
  const auto truth =
      static_cast<double>(graph::reference_triangle_count(g));

  engine::EngineConfig cfg = exact_config(2);
  // Expected max per-core load is 6|E|/C^2; cap at a quarter of it.
  cfg.sample_capacity_edges = static_cast<std::uint64_t>(
      0.25 * 6.0 * static_cast<double>(g.num_edges()) / 4.0);

  double sum = 0;
  const int trials = 5;
  for (int s = 0; s < trials; ++s) {
    cfg.seed = 2000 + s;
    PimTriangleCounter counter(cfg);
    const engine::CountReport r = counter.count(g);
    EXPECT_FALSE(r.exact);
    EXPECT_GT(r.reservoir_overflows, 0u);
    sum += r.estimate;
  }
  EXPECT_NEAR(sum / trials, truth, truth * 0.15);
}

TEST(TcIntegrationTest, ReservoirExactWhenCapacitySuffices) {
  graph::EdgeList g = graph::gen::erdos_renyi(400, 3000, 8);
  const TriangleCount expected = graph::reference_triangle_count(g);
  engine::EngineConfig cfg = exact_config(2);
  cfg.sample_capacity_edges = 3000 * 6;  // comfortably above any t_d
  PimTriangleCounter counter(cfg);
  const engine::CountReport r = counter.count(g);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.rounded(), expected);
}

// ---- dynamic updates -------------------------------------------------------------

TEST(TcIntegrationTest, DynamicUpdatesMatchStaticRecount) {
  graph::EdgeList g = graph::gen::community(1200, 40, 0.5, 800, 41);
  graph::preprocess(g, 42);
  const auto edges = g.edges();

  PimTriangleCounter dynamic(exact_config(3));
  const std::size_t step = edges.size() / 4;
  graph::EdgeList accumulated;
  for (int i = 0; i < 4; ++i) {
    const std::size_t lo = i * step;
    const std::size_t hi = (i == 3) ? edges.size() : (i + 1) * step;
    dynamic.add_edges(edges.subspan(lo, hi - lo));
    accumulated.append(edges.subspan(lo, hi - lo));

    const engine::CountReport r = dynamic.recount();
    EXPECT_TRUE(r.exact);
    EXPECT_EQ(r.rounded(), graph::reference_triangle_count(accumulated))
        << "after update " << i;
  }
}

TEST(TcIntegrationTest, RecountWithoutNewEdgesIsStable) {
  graph::EdgeList g = graph::gen::erdos_renyi(300, 2500, 9);
  PimTriangleCounter counter(exact_config(3));
  counter.add_edges(g.edges());
  const engine::CountReport a = counter.recount();
  const engine::CountReport b = counter.recount();
  EXPECT_EQ(a.rounded(), b.rounded());
}

// ---- incremental mode ----------------------------------------------------------

TEST(TcIncrementalTest, MatchesStaticAcrossUpdates) {
  graph::EdgeList g = graph::gen::community(1500, 40, 0.5, 1000, 61);
  graph::preprocess(g, 62);
  const auto edges = g.edges();

  engine::EngineConfig cfg = exact_config(3);
  cfg.incremental = true;
  PimTriangleCounter dynamic(cfg);
  graph::EdgeList accumulated;
  const std::size_t step = edges.size() / 5;
  for (int i = 0; i < 5; ++i) {
    const std::size_t lo = i * step;
    const std::size_t hi = (i == 4) ? edges.size() : (i + 1) * step;
    dynamic.add_edges(edges.subspan(lo, hi - lo));
    accumulated.append(edges.subspan(lo, hi - lo));

    const engine::CountReport r = dynamic.recount();
    EXPECT_TRUE(r.exact);
    // First recount is the full pass; all later ones take the fast path.
    EXPECT_EQ(r.used_incremental, i > 0) << "update " << i;
    EXPECT_EQ(r.rounded(), graph::reference_triangle_count(accumulated))
        << "after update " << i;
  }
}

TEST(TcIncrementalTest, AgreesWithNonIncrementalAndMisraGries) {
  graph::EdgeList g = graph::gen::barabasi_albert(900, 5, 71);
  graph::preprocess(g, 72);
  const auto edges = g.edges();
  const std::size_t half = edges.size() / 2;

  engine::EngineConfig cfg = exact_config(4);
  cfg.misra_gries_enabled = true;
  cfg.mg_capacity = 128;
  cfg.mg_top = 16;

  engine::EngineConfig inc_cfg = cfg;
  inc_cfg.incremental = true;

  PimTriangleCounter plain(cfg);
  PimTriangleCounter inc(inc_cfg);
  for (const auto part : {edges.subspan(0, half), edges.subspan(half)}) {
    plain.add_edges(part);
    inc.add_edges(part);
    EXPECT_EQ(plain.recount().rounded(), inc.recount().rounded());
  }
}

TEST(TcIncrementalTest, RecountWithoutNewEdgesStable) {
  graph::EdgeList g = graph::gen::erdos_renyi(400, 3000, 81);
  engine::EngineConfig cfg = exact_config(3);
  cfg.incremental = true;
  PimTriangleCounter counter(cfg);
  counter.add_edges(g.edges());
  const engine::CountReport a = counter.recount();
  const engine::CountReport b = counter.recount();  // no new edges
  EXPECT_EQ(a.rounded(), b.rounded());
  EXPECT_TRUE(b.used_incremental);
}

TEST(TcIncrementalTest, FallsBackToFullOnReservoirOverflow) {
  graph::EdgeList g = graph::gen::erdos_renyi(800, 12000, 91);
  graph::preprocess(g, 92);
  engine::EngineConfig cfg = exact_config(2);
  cfg.incremental = true;
  cfg.sample_capacity_edges = 2000;  // well below the per-core load
  PimTriangleCounter counter(cfg);
  const auto edges = g.edges();
  counter.add_edges(edges.subspan(0, edges.size() / 2));
  const engine::CountReport first = counter.recount();
  counter.add_edges(edges.subspan(edges.size() / 2));
  const engine::CountReport second = counter.recount();
  // Overflow forces full recounts; the estimate stays close to truth.
  EXPECT_FALSE(first.used_incremental);
  EXPECT_FALSE(second.used_incremental);
  EXPECT_GT(second.reservoir_overflows, 0u);
  const auto truth = static_cast<double>(graph::reference_triangle_count(g));
  EXPECT_NEAR(second.estimate, truth, truth * 0.4);
}

TEST(TcIncrementalTest, IncrementalRecountIsCheaper) {
  graph::EdgeList g = graph::gen::community(2500, 60, 0.5, 2000, 93);
  graph::preprocess(g, 94);
  const auto edges = g.edges();
  const std::size_t step = edges.size() / 6;

  const auto run = [&](bool incremental) {
    engine::EngineConfig cfg = exact_config(4);
    cfg.incremental = incremental;
    PimTriangleCounter counter(cfg);
    double count_s = 0.0;
    for (int i = 0; i < 6; ++i) {
      const std::size_t lo = i * step;
      const std::size_t hi = (i == 5) ? edges.size() : (i + 1) * step;
      counter.system().reset_times();
      counter.add_edges(edges.subspan(lo, hi - lo));
      count_s += counter.recount().times.count_s;
    }
    return count_s;
  };

  EXPECT_LT(run(true), run(false));
}

// ---- rank-aware ingestion ----------------------------------------------------------

TEST(TcIngestTest, PipelinedAndSerialEstimatesAreBitIdentical) {
  // The pipeline/staging knobs are timing-only; with a fixed seed the
  // estimate must not move by a single bit, including under reservoir
  // overflow (where the host-side decisions draw from the per-DPU RNGs).
  graph::EdgeList g = graph::gen::community(1500, 40, 0.5, 1200, 55);
  graph::preprocess(g, 56);
  const auto edges = g.edges();

  const auto run = [&](bool pipelined, std::uint64_t staging_cap) {
    engine::EngineConfig cfg = exact_config(3, /*seed=*/77);
    cfg.uniform_p = 0.6;               // uniform sampler engaged
    cfg.sample_capacity_edges = 800;   // reservoirs overflow
    cfg.pipelined_ingest = pipelined;
    cfg.staging_capacity_edges = staging_cap;
    PimTriangleCounter counter(cfg);
    const std::size_t step = edges.size() / 3;
    counter.add_edges(edges.subspan(0, step));
    counter.add_edges(edges.subspan(step, step));
    counter.add_edges(edges.subspan(2 * step));
    return counter.recount().estimate;
  };

  const double serial = run(false, 0);
  EXPECT_EQ(serial, run(true, 0));    // pipelined
  EXPECT_EQ(serial, run(true, 64));   // pipelined + multi-round staging
  EXPECT_EQ(serial, run(false, 64));  // serial + multi-round staging
}

TEST(TcIngestTest, OneBulkScatterPerBatchWhenStagingUnbounded) {
  graph::EdgeList g = graph::gen::erdos_renyi(500, 4000, 12);
  graph::preprocess(g, 13);
  const auto edges = g.edges();

  PimTriangleCounter counter(exact_config(3));
  const std::size_t step = edges.size() / 4;
  for (int b = 0; b < 4; ++b) {
    const std::size_t lo = b * step;
    const std::size_t hi = (b == 3) ? edges.size() : lo + step;
    counter.add_edges(edges.subspan(lo, hi - lo));
  }
  const engine::CountReport r = counter.recount();
  // One edge scatter per batch + one control-block push at recount.
  EXPECT_EQ(r.transfers.push_transfers, 4u + 1u);
  EXPECT_EQ(r.transfers.pull_transfers, 1u);
  EXPECT_GE(r.transfers.push_wire_bytes, r.transfers.push_payload_bytes);
}

TEST(TcIngestTest, StagingCapacityBoundsSplitIntoMoreScatters) {
  graph::EdgeList g = graph::gen::erdos_renyi(500, 4000, 12);
  graph::preprocess(g, 13);

  engine::EngineConfig bounded = exact_config(3);
  bounded.staging_capacity_edges = 100;  // far below the per-DPU batch load
  PimTriangleCounter counter(bounded);
  const engine::CountReport r = counter.count(g);

  PimTriangleCounter unbounded(exact_config(3));
  const engine::CountReport u = unbounded.count(g);

  EXPECT_GT(r.transfers.push_transfers, u.transfers.push_transfers);
  EXPECT_EQ(r.rounded(), u.rounded());  // functional parity
}

TEST(TcIngestTest, BulkScatterIssuesFarFewerMramWritesThanPerEdge) {
  // Acceptance criterion of the rank-aware runtime: a fig7-scale ingest run
  // must coalesce its sample writes.  The pre-refactor path issued one
  // MramBank::write per replicated edge; the staged path issues one per
  // append run / replacement run per DPU per batch.
  graph::EdgeList g = graph::gen::community(2000, 50, 0.5, 1500, 23);
  graph::preprocess(g, 24);
  const auto edges = g.edges();

  engine::EngineConfig cfg = exact_config(3);
  cfg.sample_capacity_edges = 2000;  // some replacement traffic too
  PimTriangleCounter counter(cfg);
  const std::size_t step = edges.size() / 10;
  for (int b = 0; b < 10; ++b) {
    const std::size_t lo = b * step;
    const std::size_t hi = (b == 9) ? edges.size() : lo + step;
    counter.add_edges(edges.subspan(lo, hi - lo));
  }
  const engine::CountReport r = counter.recount();

  std::uint64_t writes = 0;
  for (std::uint32_t d = 0; d < counter.system().num_dpus(); ++d) {
    writes += counter.system().dpu(d).mram().write_calls();
  }
  ASSERT_GT(r.edges_replicated, 0u);
  EXPECT_LT(writes, r.edges_replicated / 4)
      << "ingest should batch MRAM writes, not issue one per edge";
}

TEST(TcIngestTest, SamplesAndModeledCostsIndependentOfHostThreads) {
  // With p = 1 each triplet receives its records in stream order however
  // many host threads partition the batch, so the reservoir decisions, the
  // modeled charges and the bytes left in every bank must not depend on
  // the thread count.  A wrong per-thread offset only reorders a sample
  // when more than one thread runs.
  graph::EdgeList g = graph::gen::community(2000, 50, 0.5, 1500, 71);
  graph::preprocess(g, 72);
  const auto edges = g.edges();
  const std::size_t n = edges.size();

  struct Run {
    engine::CountReport report;
    std::vector<std::vector<Edge>> samples;  ///< per bank, resident prefix
  };
  const auto run = [&](std::uint32_t threads) {
    engine::EngineConfig cfg = exact_config(3);
    cfg.host_threads = threads;
    cfg.pipelined_ingest = false;  // ingest_s must not depend on host time
    cfg.sample_capacity_edges = n / 5;  // the third batch overflows some
    PimTriangleCounter counter(cfg);
    const std::size_t step = n / 3;
    for (std::size_t b = 0; b < 3; ++b) {
      const std::size_t lo = b * step;
      const std::size_t hi = b == 2 ? n : lo + step;
      counter.add_edges(edges.subspan(lo, hi - lo));
    }
    counter.remove_edges(edges.subspan(n / 2, n / 10));
    Run r;
    r.report = counter.recount();
    const pim::PimSystem& sys = counter.system();
    for (std::uint32_t d = 0; d < sys.num_dpus(); ++d) {
      const pim::MramBank& bank = sys.dpu(d).mram();
      const auto meta = bank.read_t<DpuMeta>(MramLayout::kMetaOffset);
      std::vector<Edge> sample(meta.sample_size);
      bank.read(MramLayout::sample_offset(), sample.data(),
                sample.size() * sizeof(Edge));
      r.samples.push_back(std::move(sample));
    }
    return r;
  };

  const Run one = run(1);
  ASSERT_GT(one.report.reservoir_overflows, 0u);
  ASSERT_GT(one.report.sample_evictions, 0u);
  for (const std::uint32_t threads : {3u, 7u}) {
    SCOPED_TRACE("host_threads=" + std::to_string(threads));
    const Run r = run(threads);
    EXPECT_EQ(r.report.estimate, one.report.estimate);
    EXPECT_EQ(r.report.raw_total, one.report.raw_total);
    EXPECT_EQ(r.report.times.setup_s, one.report.times.setup_s);
    EXPECT_EQ(r.report.times.ingest_s, one.report.times.ingest_s);
    EXPECT_EQ(r.report.times.count_s, one.report.times.count_s);
    EXPECT_EQ(r.report.kernel.instructions, one.report.kernel.instructions);
    EXPECT_EQ(r.report.transfers.push_transfers,
              one.report.transfers.push_transfers);
    EXPECT_EQ(r.report.transfers.push_payload_bytes,
              one.report.transfers.push_payload_bytes);
    EXPECT_EQ(r.report.transfers.push_wire_bytes,
              one.report.transfers.push_wire_bytes);
    EXPECT_EQ(r.report.transfers.pull_payload_bytes,
              one.report.transfers.pull_payload_bytes);
    EXPECT_EQ(r.samples, one.samples);
  }
}

TEST(TcIngestTest, FreshEngineHasNoBankResident) {
  // A bank maps on its first write, and building the engine writes none:
  // never-written banks read as zeros and every launch writes its own
  // control block.
  auto eng = engine::make_engine("pim", exact_config(6));
  const auto& counter = dynamic_cast<const PimTriangleCounter&>(*eng);
  const pim::PimSystem& sys = counter.system();
  for (std::uint32_t d = 0; d < sys.num_dpus(); ++d) {
    EXPECT_EQ(sys.dpu(d).mram().resident_bytes(), 0u) << "bank " << d;
  }
}

TEST(TcIngestTest, PipeliningReportsOverlapAndNeverInflatesIngest) {
  graph::EdgeList g = graph::gen::community(1500, 40, 0.5, 1200, 65);
  graph::preprocess(g, 66);
  const auto edges = g.edges();

  const auto run = [&](bool pipelined) {
    engine::EngineConfig cfg = exact_config(3);
    cfg.pipelined_ingest = pipelined;
    PimTriangleCounter counter(cfg);
    const std::size_t step = edges.size() / 5;
    for (int b = 0; b < 5; ++b) {
      const std::size_t lo = b * step;
      const std::size_t hi = (b == 4) ? edges.size() : lo + step;
      counter.add_edges(edges.subspan(lo, hi - lo));
    }
    return counter.recount();
  };

  const engine::CountReport serial = run(false);
  const engine::CountReport pipelined = run(true);
  EXPECT_EQ(serial.rounded(), pipelined.rounded());
  EXPECT_DOUBLE_EQ(serial.transfers.overlap_saved_s, 0.0);
  // Hidden time is real host-measured overlap; the modeled ingest phase can
  // only shrink (conservation: charged + saved == serial charge).
  EXPECT_GE(pipelined.transfers.overlap_saved_s, 0.0);
  EXPECT_NEAR(pipelined.times.ingest_s +
                  pipelined.transfers.overlap_saved_s,
              serial.times.ingest_s,
              1e-9 + serial.times.ingest_s * 1e-6);
}

TEST(TcIngestTest, RankTopologyReportedAndPaddingTracked) {
  graph::EdgeList g = graph::gen::erdos_renyi(400, 3000, 31);
  graph::preprocess(g, 32);

  engine::EngineConfig cfg = exact_config(3);
  cfg.pim.dpus_per_rank = 4;  // 10 DPUs for C=3 -> 3 ranks
  PimTriangleCounter counter(cfg);
  const engine::CountReport r = counter.count(g);
  EXPECT_EQ(r.num_units, 10u);
  EXPECT_EQ(r.num_ranks, 3u);
  // Per-DPU loads differ, so padding to the per-rank max must show up.
  EXPECT_GT(r.transfers.push_wire_bytes, r.transfers.push_payload_bytes);
}

// ---- phase accounting --------------------------------------------------------------

TEST(TcIntegrationTest, PhaseTimesArePopulated) {
  graph::EdgeList g = graph::gen::erdos_renyi(500, 4000, 3);
  PimTriangleCounter counter(exact_config(4));
  const engine::CountReport r = counter.count(g);
  EXPECT_GT(r.times.setup_s, 0.0);
  EXPECT_GT(r.times.ingest_s, 0.0);
  EXPECT_GT(r.times.count_s, 0.0);
}

TEST(TcIntegrationTest, LoadBalanceWithinTripletKinds) {
  // Max load should be within the 6x band of the N/3N/6N analysis (plus
  // stochastic slack).
  graph::EdgeList g = graph::gen::erdos_renyi(3000, 30000, 6);
  graph::preprocess(g, 6);
  PimTriangleCounter counter(exact_config(5));
  const engine::CountReport r = counter.count(g);
  ASSERT_GT(r.min_unit_edges, 0u);
  EXPECT_LE(static_cast<double>(r.max_unit_edges),
            8.0 * static_cast<double>(r.min_unit_edges));
}

// ---- configuration validation -------------------------------------------------------

TEST(PipelineConfigTest, ZeroColorsAutoSelectsTheLargestFit) {
  // num_colors == 0 fills the machine: the largest C with binom(C+2, 3)
  // triplets fitting max_dpus (here 8 cores -> C = 2 -> 4 triplets).
  engine::EngineConfig cfg = exact_config(0);
  cfg.pim.max_dpus = 8;
  PimTriangleCounter counter(cfg);
  EXPECT_EQ(counter.config().num_colors, 2u);
  EXPECT_EQ(counter.system().num_dpus(), 4u);
}

/// A bad pipeline config is rejected by direct construction and, with the
/// same message, by the registry for any backend: both run the one
/// EngineConfig::validate_pipeline().
void expect_rejected(const char* label, const engine::EngineConfig& cfg) {
  SCOPED_TRACE(label);
  std::string direct;
  try {
    PimTriangleCounter counter(cfg);
    ADD_FAILURE() << "direct construction accepted the config";
  } catch (const std::invalid_argument& e) {
    direct = e.what();
  }
  try {
    (void)engine::make_engine("cpu", cfg);
    ADD_FAILURE() << "make_engine(\"cpu\") accepted the config";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), direct);
  }
}

TEST(PipelineConfigTest, RejectsInvalidConfigs) {
  engine::EngineConfig bad_p = exact_config(2);
  bad_p.uniform_p = 0.0;
  expect_rejected("uniform_p = 0", bad_p);
  bad_p.uniform_p = 1.5;
  expect_rejected("uniform_p = 1.5", bad_p);

  engine::EngineConfig bad_tasklets = exact_config(2);
  bad_tasklets.tasklets = 0;
  expect_rejected("tasklets = 0", bad_tasklets);

  // Remapping more nodes than Misra-Gries tracks silently degrades; reject.
  engine::EngineConfig bad_mg = exact_config(2);
  bad_mg.misra_gries_enabled = true;
  bad_mg.mg_capacity = 16;
  bad_mg.mg_top = 17;
  expect_rejected("mg_top > mg_capacity", bad_mg);

  // WRAM buffer validated against the scratchpad budget, not clamped.
  engine::EngineConfig bad_buf = exact_config(2);
  bad_buf.wram_buffer_edges =
      max_wram_buffer_edges(small_banks(), bad_buf.tasklets) + 1;
  expect_rejected("wram_buffer_edges over budget", bad_buf);
  bad_buf.wram_buffer_edges = 0;
  expect_rejected("wram_buffer_edges = 0", bad_buf);

  engine::EngineConfig bad_gain = exact_config(2);
  bad_gain.rebalance_min_gain = 0.5;
  expect_rejected("rebalance_min_gain < 1", bad_gain);

  // Too many colors for the machine.
  engine::EngineConfig too_many = exact_config(3);
  too_many.pim.max_dpus = 4;
  expect_rejected("10 cores on a 4-core machine", too_many);
}

TEST(PipelineConfigTest, PaperScaleColorsFitPaperMachine) {
  // C=23 -> 2300 DPUs <= 2560: constructible (tiny banks to stay light).
  engine::EngineConfig cfg = exact_config(23);
  cfg.pim = {};
  cfg.pim.mram_bytes = 1 << 20;
  EXPECT_NO_THROW(PimTriangleCounter{cfg});
}

}  // namespace
}  // namespace pimtc::tc
