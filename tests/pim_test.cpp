// Tests for the PIM system simulator: MRAM/WRAM capacity enforcement, DMA
// and pipeline cost model behaviour, transfer engine, phase accounting.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "common/math_util.hpp"
#include "pim/config.hpp"
#include "pim/dpu.hpp"
#include "pim/mram.hpp"
#include "pim/system.hpp"
#include "pim/wram.hpp"

namespace pimtc::pim {
namespace {

PimSystemConfig small_config() {
  PimSystemConfig cfg;
  cfg.mram_bytes = 1 << 20;  // 1 MB banks keep tests light
  cfg.max_dpus = 64;
  return cfg;
}

// ---- MRAM ---------------------------------------------------------------------

TEST(MramTest, WriteReadRoundTrip) {
  MramBank bank(4096);
  const std::uint64_t value = 0x1122334455667788ull;
  bank.write_t(128, value);
  EXPECT_EQ(bank.read_t<std::uint64_t>(128), value);
  EXPECT_EQ(bank.high_water(), 136u);
}

TEST(MramTest, CapacityEnforced) {
  MramBank bank(256);
  std::vector<std::uint8_t> buf(300, 0xab);
  EXPECT_THROW(bank.write(0, buf.data(), buf.size()), PimMemoryError);
  EXPECT_NO_THROW(bank.write(0, buf.data(), 256));
  EXPECT_THROW(bank.write(255, buf.data(), 2), PimMemoryError);
}

TEST(MramTest, ReadOfUninitializedRegionReturnsZeros) {
  // Reads of never-written pages are deterministic zeros (DRAM after
  // reset), with no page-allocation side effect; reads past capacity still
  // throw.
  MramBank bank(1 << 20);
  bank.write_t<std::uint32_t>(0, 5);
  std::uint32_t out = 0xdeadbeef;
  bank.read(512, &out, sizeof(out));  // touched page, untouched bytes
  EXPECT_EQ(out, 0u);
  out = 0xdeadbeef;
  bank.read(512 << 10, &out, sizeof(out));  // never-touched page
  EXPECT_EQ(out, 0u);
  EXPECT_EQ(bank.resident_bytes(), 64u << 10);  // the read allocated nothing
  EXPECT_THROW(bank.read((1 << 20) - 2, &out, sizeof(out)), PimMemoryError);
}

TEST(MramTest, AccessCallCountersTally) {
  MramBank bank(4096);
  const std::uint64_t v = 7;
  for (int i = 0; i < 5; ++i) bank.write_t(8 * i, v);
  std::uint64_t out = 0;
  bank.read(0, &out, sizeof(out));
  EXPECT_EQ(bank.write_calls(), 5u);
  EXPECT_EQ(bank.read_calls(), 1u);
}

TEST(MramTest, LazyGrowth) {
  MramBank bank(64ull << 20);
  EXPECT_EQ(bank.high_water(), 0u);
  EXPECT_EQ(bank.resident_bytes(), 0u);
  bank.write_t<std::uint8_t>(1000, 1);
  EXPECT_EQ(bank.high_water(), 1001u);
  // One 64 KB page resident, not 64 MB.
  EXPECT_EQ(bank.resident_bytes(), 64u << 10);
  // A deep write touches one more page only.
  bank.write_t<std::uint8_t>(32ull << 20, 1);
  EXPECT_EQ(bank.resident_bytes(), 2 * (64u << 10));
}

// ---- WRAM ---------------------------------------------------------------------

TEST(WramTest, AllocatesWithinCapacity) {
  WramArena arena(1024);
  arena.reserve<std::uint64_t>(64);  // 512 bytes
  EXPECT_EQ(arena.used(), 512u);
  arena.reserve<std::uint8_t>(400);
  EXPECT_EQ(arena.used(), 912u);
  EXPECT_THROW(arena.reserve<std::uint64_t>(64), PimMemoryError);
  EXPECT_EQ(arena.used(), 912u);  // a failed claim leaves the arena as is
}

TEST(WramTest, ResetReclaimsEverything) {
  WramArena arena(256);
  arena.reserve<std::uint8_t>(200);
  arena.reset();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_NO_THROW(arena.reserve<std::uint8_t>(200));
  EXPECT_GE(arena.high_water(), 200u);
}

TEST(WramTest, SixteenTaskletBuffersMustFit) {
  // The real constraint the kernels live under: 16 tasklets x buffer bytes
  // <= 64 KB.  17 x 4 KB must fail.
  WramArena arena(64 << 10);
  for (int t = 0; t < 16; ++t) {
    EXPECT_NO_THROW(arena.reserve<std::uint8_t>(4096)) << "tasklet " << t;
  }
  EXPECT_THROW(arena.reserve<std::uint8_t>(4096), PimMemoryError);
}

// ---- DPU cost model -------------------------------------------------------------

TEST(DpuCostTest, SaturatedPipelineIssuesOnePerCycle) {
  const PimSystemConfig cfg = small_config();
  Dpu dpu(cfg, 0);
  dpu.parallel(16, [](Tasklet& t) { t.instr(1000); });
  // 16 tasklets x 1000 instr, >= 11 resident: total cycles ~ 16000.
  EXPECT_DOUBLE_EQ(dpu.cycles(), 16000.0);
}

TEST(DpuCostTest, UndersubscribedPipelineIsSlower) {
  const PimSystemConfig cfg = small_config();
  Dpu one(cfg, 0);
  one.parallel(1, [](Tasklet& t) { t.instr(1000); });
  // A single tasklet issues every 11 cycles.
  EXPECT_DOUBLE_EQ(one.cycles(), 11000.0);

  Dpu eleven(cfg, 1);
  eleven.parallel(11, [](Tasklet& t) { t.instr(1000); });
  EXPECT_DOUBLE_EQ(eleven.cycles(), 11000.0);  // 11 x 1000 x max(1, 11/11)
}

TEST(DpuCostTest, StragglerBoundsPhase) {
  const PimSystemConfig cfg = small_config();
  Dpu dpu(cfg, 0);
  // One tasklet does all the work: phase >= work x pipeline depth.
  dpu.parallel(16, [](Tasklet& t) {
    if (t.id() == 0) t.instr(1000);
  });
  EXPECT_DOUBLE_EQ(dpu.cycles(), 11000.0);
}

TEST(DpuCostTest, DmaChargedWithSetupAndPerByte) {
  const PimSystemConfig cfg = small_config();
  Dpu dpu(cfg, 0);
  std::vector<std::uint8_t> buf(2048, 7);
  dpu.parallel(1, [&](Tasklet& t) {
    t.mram_write(0, buf.data(), buf.size());
  });
  // One transfer: setup 77 + 2048 x 0.5 = 1101 cycles; DMA dominates the
  // phase (no instructions charged).
  EXPECT_DOUBLE_EQ(dpu.cycles(), 77.0 + 1024.0);
}

TEST(DpuCostTest, DmaAndComputeOverlap) {
  const PimSystemConfig cfg = small_config();
  Dpu dpu(cfg, 0);
  std::vector<std::uint8_t> buf(1024, 1);
  dpu.parallel(16, [&](Tasklet& t) {
    t.mram_write(t.id() * 1024, buf.data(), buf.size());
    t.instr(10000);
  });
  // compute bound: 16 x 10000 = 160000 >> dma 16 x (77+512); max() wins.
  EXPECT_DOUBLE_EQ(dpu.cycles(), 160000.0);
}

TEST(DpuCostTest, FunctionalDataVisibleAfterDma) {
  const PimSystemConfig cfg = small_config();
  Dpu dpu(cfg, 0);
  const std::uint64_t magic = 0xfeedface;
  dpu.parallel(2, [&](Tasklet& t) {
    if (t.id() == 0) t.mram_write_t(64, magic);
  });
  std::uint64_t out = 0;
  dpu.parallel(2, [&](Tasklet& t) {
    if (t.id() == 1) out = t.mram_read_t<std::uint64_t>(64);
  });
  EXPECT_EQ(out, magic);
}

TEST(DpuCostTest, NestedParallelForbidden) {
  const PimSystemConfig cfg = small_config();
  Dpu dpu(cfg, 0);
  EXPECT_THROW(dpu.parallel(2,
                            [&](Tasklet&) {
                              dpu.parallel(2, [](Tasklet&) {});
                            }),
               std::logic_error);
}

TEST(DpuCostTest, BadTaskletCountRejected) {
  const PimSystemConfig cfg = small_config();
  Dpu dpu(cfg, 0);
  EXPECT_THROW(dpu.parallel(0, [](Tasklet&) {}), std::invalid_argument);
  EXPECT_THROW(dpu.parallel(cfg.max_tasklets + 1, [](Tasklet&) {}),
               std::invalid_argument);
}

TEST(DpuCostTest, ChargeDmaBulkCountsChunks) {
  const PimSystemConfig cfg = small_config();
  Dpu dpu(cfg, 0);
  dpu.charge_dma_bulk(4096, 2048);  // 2 chunks
  EXPECT_DOUBLE_EQ(dpu.cycles(), 2 * 77.0 + 4096 * 0.5);
}

// ---- PimSystem ------------------------------------------------------------------

TEST(PimSystemTest, AllocationChargesSetupTime) {
  const PimSystemConfig cfg = small_config();
  PimSystem sys(cfg, 8);
  EXPECT_EQ(sys.num_dpus(), 8u);
  EXPECT_GT(sys.times().setup_s, 0.0);
  EXPECT_DOUBLE_EQ(sys.times().ingest_s, 0.0);
}

TEST(PimSystemTest, SetupGrowsWithRanks) {
  const PimSystemConfig cfg;  // default: 64 DPUs/rank, 2560 max
  const PimSystem small(cfg, 64);
  const PimSystem large(cfg, 2560);
  EXPECT_GT(large.times().setup_s, small.times().setup_s);
}

TEST(PimSystemTest, RejectsOverAllocation) {
  const PimSystemConfig cfg = small_config();  // max 64
  EXPECT_THROW(PimSystem(cfg, 65), std::invalid_argument);
  EXPECT_THROW(PimSystem(cfg, 0), std::invalid_argument);
}

TEST(PimSystemTest, LaunchTakesMaxOverDpus) {
  const PimSystemConfig cfg = small_config();
  PimSystem sys(cfg, 4);
  sys.reset_times();
  sys.launch(
      [](Dpu& dpu) {
        // DPU i charges (i+1) x 1e6 instructions on a saturated pipeline.
        dpu.parallel(16, [&](Tasklet& t) {
          t.instr((dpu.id() + 1) * 62500ull);
        });
      },
      &PhaseTimes::count_s);
  const double expected_kernel_cycles = 4.0 * 62500.0 * 16.0;
  EXPECT_NEAR(sys.times().count_s,
              cfg.launch_overhead_s +
                  expected_kernel_cycles / (cfg.dpu_mhz * 1e6),
              1e-9);
}

TEST(PimSystemTest, TransferTimeScalesWithBytes) {
  const PimSystemConfig cfg;
  const double t_small = cfg.transfer_seconds(1 << 20, 256, true);
  const double t_large = cfg.transfer_seconds(64 << 20, 256, true);
  EXPECT_GT(t_large, t_small);
  // Latency floor.
  EXPECT_GE(cfg.transfer_seconds(0, 256, true), cfg.host_xfer_latency_s);
}

TEST(PimSystemTest, FewRanksThrottleBandwidth) {
  const PimSystemConfig cfg;
  // Same bytes over 1 rank vs 20 ranks.
  const double narrow = cfg.transfer_seconds(256 << 20, 64, true);
  const double wide = cfg.transfer_seconds(256 << 20, 1280, true);
  EXPECT_GT(narrow, wide);
}

TEST(PimSystemTest, PullSlowerThanPush) {
  const PimSystemConfig cfg;
  EXPECT_GT(cfg.transfer_seconds(64 << 20, 2560, false),
            cfg.transfer_seconds(64 << 20, 2560, true));
}

TEST(PimSystemTest, PhaseChargesAccumulateIndependently) {
  const PimSystemConfig cfg = small_config();
  PimSystem sys(cfg, 2);
  sys.reset_times();
  sys.charge_host(0.5, &PhaseTimes::ingest_s);
  sys.charge_host(0.25, &PhaseTimes::count_s);
  EXPECT_DOUBLE_EQ(sys.times().ingest_s, 0.5);
  EXPECT_DOUBLE_EQ(sys.times().count_s, 0.25);
  EXPECT_DOUBLE_EQ(sys.times().total_s(), 0.75);
}

// ---- rank-aware transfer runtime ------------------------------------------

PimSystemConfig ranked_config(std::uint32_t dpus_per_rank) {
  PimSystemConfig cfg;
  cfg.mram_bytes = 1 << 20;
  cfg.max_dpus = 64;
  cfg.dpus_per_rank = dpus_per_rank;
  return cfg;
}

TEST(RankTopologyTest, RanksDeriveFromDpusPerRank) {
  PimSystem sys(ranked_config(4), 10);
  EXPECT_EQ(sys.dpus_per_rank(), 4u);
  EXPECT_EQ(sys.num_ranks(), 3u);  // 4 + 4 + 2
  EXPECT_EQ(sys.rank_of(0), 0u);
  EXPECT_EQ(sys.rank_of(3), 0u);
  EXPECT_EQ(sys.rank_of(4), 1u);
  EXPECT_EQ(sys.rank_of(9), 2u);
}

TEST(RankTopologyTest, ZeroDpusPerRankRejected) {
  EXPECT_THROW(PimSystem(ranked_config(0), 4), std::invalid_argument);
}

TEST(ScatterTest, PadsEachRankToItsSlowestDpu) {
  // 2 ranks of 4 DPUs; rank 0 spans {100, 8, 0, 16}, rank 1 all zero except
  // one DPU.  dpu_push_xfer moves max-bytes to every DPU of an active rank:
  // rank 0 wire = 4 * round_up(100, 8) = 416, rank 1 wire = 4 * 8 = 32.
  PimSystem sys(ranked_config(4), 8);
  sys.reset_times();
  const std::vector<std::uint64_t> bytes = {100, 8, 0, 16, 0, 0, 8, 0};
  const double seconds =
      sys.charge_scatter(bytes, &PhaseTimes::ingest_s);

  const TransferStats& s = sys.transfer_stats();
  EXPECT_EQ(s.push_transfers, 1u);
  EXPECT_EQ(s.push_payload_bytes, 132u);
  EXPECT_EQ(s.push_wire_bytes, 416u + 32u);
  const double expected =
      sys.config().bulk_transfer_seconds(448, 2, /*push=*/true);
  EXPECT_DOUBLE_EQ(seconds, expected);
  EXPECT_DOUBLE_EQ(sys.times().ingest_s, expected);
}

TEST(ScatterTest, UniformSpansMatchTheFlatModel) {
  // With identical spans on every DPU there is no padding, and the
  // rank-aware charge degenerates to the old flat transfer_seconds().
  PimSystem sys(ranked_config(4), 8);
  sys.reset_times();
  const std::vector<std::uint64_t> bytes(8, 4096);
  const double seconds =
      sys.charge_scatter(bytes, &PhaseTimes::ingest_s);
  EXPECT_DOUBLE_EQ(seconds,
                   sys.config().transfer_seconds(8 * 4096, 8, /*push=*/true));
  EXPECT_EQ(sys.transfer_stats().push_wire_bytes,
            sys.transfer_stats().push_payload_bytes);
}

TEST(ScatterTest, NullPhaseRecordsStatsWithoutCharging) {
  PimSystem sys(ranked_config(4), 4);
  sys.reset_times();
  const std::vector<std::uint64_t> bytes(4, 64);
  const double seconds = sys.charge_scatter(bytes, nullptr);
  EXPECT_GT(seconds, 0.0);
  EXPECT_EQ(sys.transfer_stats().push_transfers, 1u);
  EXPECT_DOUBLE_EQ(sys.times().ingest_s, 0.0);
  sys.note_overlap_saved(seconds);
  EXPECT_DOUBLE_EQ(sys.transfer_stats().overlap_saved_s, seconds);
}

TEST(ScatterTest, EmptyTransferIsFree) {
  PimSystem sys(ranked_config(4), 4);
  sys.reset_times();
  const std::vector<std::uint64_t> bytes(4, 0);
  EXPECT_DOUBLE_EQ(sys.charge_scatter(bytes, &PhaseTimes::count_s), 0.0);
  EXPECT_EQ(sys.transfer_stats().push_transfers, 0u);
  EXPECT_DOUBLE_EQ(sys.times().count_s, 0.0);
}

TEST(ScatterTest, WrongSpanCountRejected) {
  PimSystem sys(ranked_config(4), 4);
  const std::vector<std::uint64_t> bytes(3, 8);
  EXPECT_THROW(sys.charge_scatter(bytes, nullptr), std::invalid_argument);
}

TEST(ScatterTest, FunctionalScatterGatherRoundTrip) {
  PimSystem sys(ranked_config(2), 4);
  sys.reset_times();
  std::vector<std::vector<std::uint64_t>> payload(4);
  std::vector<ScatterSpan> out(4);
  for (std::uint32_t d = 0; d < 4; ++d) {
    payload[d] = {d + 1ull, d + 100ull};
    out[d] = {64, payload[d].data(), payload[d].size() * 8};
  }
  sys.scatter(out, &PhaseTimes::ingest_s);

  std::vector<std::vector<std::uint64_t>> back(4, std::vector<std::uint64_t>(2));
  std::vector<GatherSpan> in(4);
  for (std::uint32_t d = 0; d < 4; ++d) {
    in[d] = {64, back[d].data(), back[d].size() * 8};
  }
  sys.gather(in, &PhaseTimes::count_s);
  for (std::uint32_t d = 0; d < 4; ++d) EXPECT_EQ(back[d], payload[d]);

  EXPECT_EQ(sys.transfer_stats().push_transfers, 1u);
  EXPECT_EQ(sys.transfer_stats().pull_transfers, 1u);
  EXPECT_EQ(sys.transfer_stats().pull_payload_bytes, 64u);
  EXPECT_GT(sys.times().ingest_s, 0.0);
  EXPECT_GT(sys.times().count_s, 0.0);
}

TEST(ScatterTest, ResetTimesClearsTransferStats) {
  PimSystem sys(ranked_config(4), 4);
  const std::vector<std::uint64_t> bytes(4, 64);
  sys.charge_scatter(bytes, &PhaseTimes::ingest_s);
  EXPECT_EQ(sys.transfer_stats().push_transfers, 1u);
  sys.reset_times();
  EXPECT_EQ(sys.transfer_stats().push_transfers, 0u);
  EXPECT_DOUBLE_EQ(sys.times().ingest_s, 0.0);
}

TEST(PimSystemTest, MaxColorsForPaperMachine) {
  // 2560 DPUs support 23 colors = 2300 used DPUs, as in Section 4.2.
  const PimSystemConfig cfg;
  EXPECT_EQ(max_colors_for_cores(cfg.max_dpus), 23u);
}

}  // namespace
}  // namespace pimtc::pim
