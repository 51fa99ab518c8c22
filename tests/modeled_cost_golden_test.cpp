// Golden modeled-cost test: pins every modeled output of the PIM backend —
// estimate, raw count, modeled phase seconds (exact bits), kernel
// instruction counts, intersection tallies, per-DPU lifetime DMA traffic
// and host<->MRAM transfer stats — for a set of seeded scenarios.
//
// The simulator may execute a kernel however it likes on the host, but every
// modeled charge must stay identical (DESIGN.md, "Simulator execution vs.
// modeled cost").  The values below were captured from the streaming
// one-buffer-at-a-time simulator; any host-side shortcut has to reproduce
// them bit for bit.
//
// Every scenario runs with pipelined_ingest = false: with pipelining on,
// the modeled ingest phase hides device time under *measured* host time, so
// sample_creation_s would vary from run to run.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/preprocess.hpp"
#include "tc/host.hpp"

namespace pimtc::tc {
namespace {

/// Everything the cost model produces for one recount.
struct Snapshot {
  double estimate;
  std::uint64_t raw_total;
  double setup_s;
  double sample_creation_s;
  double count_s;
  std::uint64_t kernel_instructions;
  std::uint64_t count_instructions;
  std::uint64_t merge_isects;
  std::uint64_t gallop_isects;
  std::uint64_t merge_picks;
  std::uint64_t gallop_probes;
  std::uint64_t chunks_claimed;
  std::uint64_t dma_bytes;      ///< summed lifetime per-DPU DMA bytes
  std::uint64_t dma_transfers;  ///< summed lifetime per-DPU DMA transfers
  std::uint64_t push_transfers;
  std::uint64_t push_payload_bytes;
  std::uint64_t push_wire_bytes;
  std::uint64_t pull_transfers;
  std::uint64_t pull_payload_bytes;
  std::uint64_t pull_wire_bytes;
};

Snapshot snapshot(const PimTriangleCounter& counter, const TcResult& r) {
  Snapshot s{};
  s.estimate = r.estimate;
  s.raw_total = r.raw_total;
  s.setup_s = r.times.setup_s;
  s.sample_creation_s = r.times.sample_creation_s;
  s.count_s = r.times.count_s;
  s.kernel_instructions = r.kernel_instructions;
  s.count_instructions = r.count_instructions;
  s.merge_isects = r.kernel.merge_isects;
  s.gallop_isects = r.kernel.gallop_isects;
  s.merge_picks = r.kernel.merge_picks;
  s.gallop_probes = r.kernel.gallop_probes;
  s.chunks_claimed = r.kernel.chunks_claimed;
  const pim::PimSystem& sys = counter.system();
  for (std::uint32_t d = 0; d < sys.num_dpus(); ++d) {
    s.dma_bytes += sys.dpu(d).total_dma_bytes();
    s.dma_transfers += sys.dpu(d).total_dma_transfers();
  }
  s.push_transfers = r.transfers.push_transfers;
  s.push_payload_bytes = r.transfers.push_payload_bytes;
  s.push_wire_bytes = r.transfers.push_wire_bytes;
  s.pull_transfers = r.transfers.pull_transfers;
  s.pull_payload_bytes = r.transfers.pull_payload_bytes;
  s.pull_wire_bytes = r.transfers.pull_wire_bytes;
  return s;
}

/// The snapshot as a C++ initializer (hex floats keep every bit), printed
/// on mismatch so a deliberate model change can re-pin the table.
std::string to_initializer(const Snapshot& s) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{%a, %lluu, %a, %a, %a, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, "
      "%lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu}",
      s.estimate, static_cast<unsigned long long>(s.raw_total), s.setup_s,
      s.sample_creation_s, s.count_s,
      static_cast<unsigned long long>(s.kernel_instructions),
      static_cast<unsigned long long>(s.count_instructions),
      static_cast<unsigned long long>(s.merge_isects),
      static_cast<unsigned long long>(s.gallop_isects),
      static_cast<unsigned long long>(s.merge_picks),
      static_cast<unsigned long long>(s.gallop_probes),
      static_cast<unsigned long long>(s.chunks_claimed),
      static_cast<unsigned long long>(s.dma_bytes),
      static_cast<unsigned long long>(s.dma_transfers),
      static_cast<unsigned long long>(s.push_transfers),
      static_cast<unsigned long long>(s.push_payload_bytes),
      static_cast<unsigned long long>(s.push_wire_bytes),
      static_cast<unsigned long long>(s.pull_transfers),
      static_cast<unsigned long long>(s.pull_payload_bytes),
      static_cast<unsigned long long>(s.pull_wire_bytes));
  return buf;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_pinned(const std::vector<Snapshot>& got,
                   const std::vector<Snapshot>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Snapshot& g = got[i];
    const Snapshot& w = want[i];
    SCOPED_TRACE("recount " + std::to_string(i));
    EXPECT_EQ(bits(g.estimate), bits(w.estimate));
    EXPECT_EQ(g.raw_total, w.raw_total);
    EXPECT_EQ(bits(g.setup_s), bits(w.setup_s));
    EXPECT_EQ(bits(g.sample_creation_s), bits(w.sample_creation_s));
    EXPECT_EQ(bits(g.count_s), bits(w.count_s));
    EXPECT_EQ(g.kernel_instructions, w.kernel_instructions);
    EXPECT_EQ(g.count_instructions, w.count_instructions);
    EXPECT_EQ(g.merge_isects, w.merge_isects);
    EXPECT_EQ(g.gallop_isects, w.gallop_isects);
    EXPECT_EQ(g.merge_picks, w.merge_picks);
    EXPECT_EQ(g.gallop_probes, w.gallop_probes);
    EXPECT_EQ(g.chunks_claimed, w.chunks_claimed);
    EXPECT_EQ(g.dma_bytes, w.dma_bytes);
    EXPECT_EQ(g.dma_transfers, w.dma_transfers);
    EXPECT_EQ(g.push_transfers, w.push_transfers);
    EXPECT_EQ(g.push_payload_bytes, w.push_payload_bytes);
    EXPECT_EQ(g.push_wire_bytes, w.push_wire_bytes);
    EXPECT_EQ(g.pull_transfers, w.pull_transfers);
    EXPECT_EQ(g.pull_payload_bytes, w.pull_payload_bytes);
    EXPECT_EQ(g.pull_wire_bytes, w.pull_wire_bytes);
  }
  if (::testing::Test::HasFailure()) {
    std::string actual;
    for (const Snapshot& s : got) actual += "    " + to_initializer(s) + ",\n";
    ADD_FAILURE() << "actual snapshots:\n" << actual;
  }
}

/// A 64-DPU machine with 4 MB banks: small enough for a unit test, large
/// enough that C = auto resolves to a multi-rank allocation.
pim::PimSystemConfig small_machine() {
  pim::PimSystemConfig cfg;
  cfg.max_dpus = 64;
  cfg.mram_bytes = 4ull << 20;
  return cfg;
}

TcConfig base_config(std::uint64_t seed) {
  TcConfig cfg;
  cfg.seed = seed;
  cfg.pipelined_ingest = false;  // see the file comment
  return cfg;
}

/// Skewed graph with planted hubs: long and short regions, so both the
/// merge and the gallop intersections run.
graph::EdgeList hub_graph(std::uint64_t seed) {
  graph::EdgeList g = graph::gen::barabasi_albert(1500, 6, seed);
  graph::gen::add_hubs(g, 3, 300, seed + 1);
  graph::preprocess(g, seed + 2);
  return g;
}

std::vector<Snapshot> run_static(const TcConfig& cfg,
                                 const graph::EdgeList& g) {
  PimTriangleCounter counter(cfg, small_machine());
  const TcResult r = counter.count(g);
  return {snapshot(counter, r)};
}

TEST(ModeledCostGoldenTest, StaticExactAutoColors) {
  TcConfig cfg = base_config(11);
  cfg.num_colors = 0;  // auto: fills the 64-DPU machine
  const std::vector<Snapshot> want = {
      {0x1.9c2p+11, 3717u, 0x1.a9fbe76c8b43ap-9, 0x1.4527268a83513p-9,
       0x1.f548410c64bd4p-10, 16805687u, 6273489u, 26241u, 418u, 255339u, 1318u,
       3733u, 13176984u, 207558u, 2u, 480016u, 840000u, 1u, 5824u, 5824u},
  };
  expect_pinned(run_static(cfg, hub_graph(101)), want);
}

TEST(ModeledCostGoldenTest, OverflowMisraGriesIncrementalWithDeletions) {
  const graph::EdgeList g = hub_graph(202);
  const auto edges = g.edges();
  const std::size_t n = edges.size();

  TcConfig cfg = base_config(22);
  cfg.num_colors = 4;
  cfg.incremental = true;
  cfg.misra_gries_enabled = true;
  cfg.degree_ordered_remap = true;
  // The first two batches fit every reservoir (incremental recounts with a
  // dirty full pass after the deletions); the last one overflows some.
  cfg.sample_capacity_edges = 3 * n / 10;
  PimTriangleCounter counter(cfg, small_machine());

  std::vector<Snapshot> got;
  counter.add_edges(edges.subspan(0, n / 4));
  got.push_back(snapshot(counter, counter.recount()));
  counter.remove_edges(edges.subspan(0, 40));
  counter.add_edges(edges.subspan(n / 4, n / 4));
  got.push_back(snapshot(counter, counter.recount()));
  counter.add_edges(edges.subspan(n / 2));
  got.push_back(snapshot(counter, counter.recount()));
  const std::vector<Snapshot> want = {
      {0x1.88p+5, 67u, 0x1.a9fbe76c8b43ap-9, 0x1.1396f93795054p-11,
       0x1.003e56df1008fp-8, 7302629u, 902157u, 1226u, 0u, 1604u, 0u, 626u,
       4337472u, 65513u, 2u, 145088u, 226880u, 1u, 2080u, 2080u},
      {0x1.a7p+8, 528u, 0x1.a9fbe76c8b43ap-9, 0x1.9d6b47c057dbdp-10,
       0x1.3d848e946a4e8p-7, 13819628u, 1721454u, 6305u, 0u, 12141u, 0u, 1234u,
       12468336u, 162755u, 5u, 292736u, 455840u, 3u, 83168u, 164960u},
      {0x1.9f9f69f53fa33p+11, 3376u, 0x1.a9fbe76c8b43ap-9, 0x1.5cc5f261ef271p-9,
       0x1.d5824cde48c5p-7, 12008379u, 3262661u, 20174u, 0u, 61703u, 0u, 2283u,
       19469168u, 286065u, 7u, 517584u, 841440u, 4u, 85248u, 167040u},
  };
  expect_pinned(got, want);
}

TEST(ModeledCostGoldenTest, RegionCacheDisabled) {
  TcConfig cfg = base_config(33);
  cfg.num_colors = 4;
  cfg.region_cache = false;
  const std::vector<Snapshot> want = {
      {0x1.92ep+11, 3763u, 0x1.a9fbe76c8b43ap-9, 0x1.fad87ef534d11p-10,
       0x1.dfc14630e6d2bp-8, 18161436u, 10883564u, 21263u, 482u, 276664u, 1710u,
       2478u, 12836568u, 591649u, 2u, 318208u, 619520u, 1u, 2080u, 2080u},
  };
  expect_pinned(run_static(cfg, hub_graph(303)), want);
}

TEST(ModeledCostGoldenTest, WideRegionWindows) {
  // One color puts the whole graph on one bank: > 5 x 2048 regions make the
  // cached lookup windows wide enough for the in-window MRAM binary search.
  graph::EdgeList g = graph::gen::barabasi_albert(24000, 3, 606);
  graph::preprocess(g, 607);
  std::vector<Snapshot> got;
  for (const bool cache : {true, false}) {
    TcConfig cfg = base_config(66);
    cfg.num_colors = 1;
    cfg.region_cache = cache;
    got.push_back(run_static(cfg, g).front());
  }
  const std::vector<Snapshot> want = {
      {0x1.41b7d895c655ap+9, 313u, 0x1.a9fbe76c8b43ap-9, 0x1.b8d11d81fd4bep-9,
       0x1.35db1d59f6bb4p-4, 24909535u, 12038366u, 25998u, 1774u, 473829u,
       13923u, 3539u, 19743688u, 398854u, 2u, 453072u, 453072u, 1u, 104u, 104u},
      {0x1.41b7d895c655ap+9, 313u, 0x1.a9fbe76c8b43ap-9, 0x1.b8d11d81fd4bep-9,
       0x1.17bd8cab80d2fp-3, 34730350u, 21859181u, 25998u, 1774u, 473829u,
       13923u, 3539u, 25740120u, 1162689u, 2u, 453072u, 453072u, 1u, 104u,
       104u},
  };
  expect_pinned(got, want);
}

TEST(ModeledCostGoldenTest, ForcedMergeAndGallop) {
  const graph::EdgeList g = hub_graph(404);
  std::vector<Snapshot> got;
  for (const IntersectPolicy policy :
       {IntersectPolicy::kMerge, IntersectPolicy::kGallop}) {
    TcConfig cfg = base_config(44);
    cfg.num_colors = 4;
    cfg.intersect = policy;
    cfg.wram_buffer_edges = 24;  // partial refills on most regions
    got.push_back(run_static(cfg, g).front());
  }
  const std::vector<Snapshot> want = {
      {0x1.96ap+11, 3760u, 0x1.a9fbe76c8b43ap-9, 0x1.0890f32cddd99p-9,
       0x1.0dbcc4a338c25p-8, 12427123u, 5104901u, 21785u, 0u, 272710u, 0u,
       2479u, 9478904u, 143517u, 2u, 318208u, 647200u, 1u, 2080u, 2080u},
      {0x1.96ap+11, 3760u, 0x1.a9fbe76c8b43ap-9, 0x1.0890f32cddd99p-9,
       0x1.cf28cdc2217e4p-8, 14662506u, 7340284u, 0u, 21785u, 0u, 217271u,
       2479u, 15826032u, 336016u, 2u, 318208u, 647200u, 1u, 2080u, 2080u},
  };
  expect_pinned(got, want);
}

TEST(ModeledCostGoldenTest, FaultPlanWithRetry) {
  TcConfig cfg = base_config(55);
  cfg.num_colors = 4;
  cfg.fault_spec =
      "seed=5,launch-transient=0.2,corrupt=0.05,checksum=on,recovery=retry";
  const std::vector<Snapshot> want = {
      {0x1.994p+11, 3892u, 0x1.a9fbe76c8b43ap-9, 0x1.05e1cd18656e9p-9,
       0x1.05d1dca18545bp-7, 12431266u, 5077358u, 21345u, 321u, 267571u, 1008u,
       2480u, 9474040u, 127770u, 2u, 318208u, 630240u, 2u, 2288u, 4160u},
  };
  expect_pinned(run_static(cfg, hub_graph(505)), want);
}

}  // namespace
}  // namespace pimtc::tc
