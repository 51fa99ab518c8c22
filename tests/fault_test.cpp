// Tests for the fault-tolerant PIM runtime: FaultSpec parsing, FaultPlan
// determinism, injection-off bit-identity, retry / re-materialize / degrade
// recovery in tc::PimTriangleCounter, transfer-corruption detection and
// repair, MRAM bit-flip scrubbing, and the SampleMirror restore primitive.
//
// The recovery acceptance bar (ISSUE 9): whenever recovery fully
// re-materializes the lost state — transient + retry, dead bank + spare,
// corrupted transfer + checksum repair, bit flip + scrub — the estimate must
// be *bit-identical* to a fault-free run; only unrecoverable loss may
// degrade, and then coverage < 1 with the observed error inside the
// reported bound.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/registry.hpp"
#include "graph/generators.hpp"
#include "graph/preprocess.hpp"
#include "graph/reference_tc.hpp"
#include "pim/fault.hpp"
#include "tc/host.hpp"

namespace pimtc {
namespace {

pim::PimSystemConfig small_banks() {
  pim::PimSystemConfig cfg;
  cfg.mram_bytes = 8ull << 20;
  return cfg;
}

/// The acceptance graph family: BA preferential attachment plus planted
/// hubs, so triplet loads are skewed and a dropped triplet actually hurts.
graph::EdgeList ba_hub_graph(std::uint64_t seed) {
  graph::EdgeList g = graph::gen::barabasi_albert(1500, 6, seed);
  graph::gen::add_hubs(g, 4, 200, seed + 1);
  graph::preprocess(g, seed + 2);
  return g;
}

engine::EngineConfig base_config(std::uint64_t seed = 42) {
  engine::EngineConfig cfg;
  cfg.num_colors = 4;
  cfg.seed = seed;
  cfg.pim = small_banks();
  return cfg;
}

/// One full static session under `spec` (empty = injection off).
engine::CountReport run_with_spec(const graph::EdgeList& g,
                                  const std::string& spec,
                                  std::uint32_t colors = 4) {
  engine::EngineConfig cfg = base_config();
  cfg.num_colors = colors;
  cfg.fault_spec = spec;
  tc::PimTriangleCounter counter(cfg);
  return counter.count(g);
}

// ---- spec parsing -----------------------------------------------------------

TEST(FaultSpecTest, ParsesEveryKey) {
  const pim::FaultSpec s = pim::FaultSpec::parse(
      "seed=7,launch-transient=0.25,launch-permanent=0.125,rank-outage=0.5,"
      "corrupt=0.01,bitflip=0.02,checksum=off,recovery=retry,max-retries=5,"
      "spares=3,from-step=10,until-step=20,backoff-us=100,checksum-gbps=25");
  EXPECT_EQ(s.seed, 7u);
  EXPECT_DOUBLE_EQ(s.launch_transient, 0.25);
  EXPECT_DOUBLE_EQ(s.launch_permanent, 0.125);
  EXPECT_DOUBLE_EQ(s.rank_outage, 0.5);
  EXPECT_DOUBLE_EQ(s.transfer_corrupt, 0.01);
  EXPECT_DOUBLE_EQ(s.mram_bitflip, 0.02);
  EXPECT_FALSE(s.checksums);
  EXPECT_EQ(s.recovery, pim::FaultSpec::Recovery::kRetry);
  EXPECT_STREQ(s.recovery_name(), "retry");
  EXPECT_EQ(s.max_retries, 5u);
  EXPECT_EQ(s.spare_banks, 3u);
  EXPECT_EQ(s.from_step, 10u);
  EXPECT_EQ(s.until_step, 20u);
  EXPECT_DOUBLE_EQ(s.backoff_base_s, 100e-6);
  EXPECT_DOUBLE_EQ(s.checksum_gb_s, 25.0);
}

TEST(FaultSpecTest, DefaultsAreInertRematerialize) {
  const pim::FaultSpec s = pim::FaultSpec::parse("seed=9");
  EXPECT_DOUBLE_EQ(s.launch_transient, 0.0);
  EXPECT_DOUBLE_EQ(s.launch_permanent, 0.0);
  EXPECT_DOUBLE_EQ(s.rank_outage, 0.0);
  EXPECT_DOUBLE_EQ(s.transfer_corrupt, 0.0);
  EXPECT_DOUBLE_EQ(s.mram_bitflip, 0.0);
  EXPECT_TRUE(s.checksums);
  EXPECT_EQ(s.recovery, pim::FaultSpec::Recovery::kRematerialize);
}

TEST(FaultSpecTest, RejectsMalformedSpecsNamingTheKey) {
  const auto expect_bad = [](const std::string& spec,
                             const std::string& needle) {
    try {
      (void)pim::FaultSpec::parse(spec);
      FAIL() << "expected std::invalid_argument for '" << spec << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  };
  expect_bad("", "empty");
  expect_bad("bogus=1", "bogus");
  expect_bad("launch-transient", "key=value");
  expect_bad("launch-transient=1.5", "launch-transient");
  expect_bad("corrupt=-0.1", "corrupt");
  expect_bad("seed=abc", "seed");
  expect_bad("checksum=maybe", "checksum");
  expect_bad("recovery=pray", "recovery");
  expect_bad("max-retries=99", "max-retries");
  expect_bad("from-step=5,until-step=5", "from-step");
}

// ---- plan determinism -------------------------------------------------------

TEST(FaultPlanTest, DrawsArePureFunctionsOfSeedStepUnit) {
  const pim::FaultSpec spec = pim::FaultSpec::parse("seed=11,corrupt=0.3");
  const pim::FaultPlan a(spec);
  const pim::FaultPlan b(spec);
  int fired = 0;
  for (std::uint64_t step = 0; step < 200; ++step) {
    for (std::uint32_t dpu = 0; dpu < 8; ++dpu) {
      EXPECT_EQ(a.transfer_corrupt(step, dpu), b.transfer_corrupt(step, dpu));
      EXPECT_EQ(a.corrupt_bit(step, dpu, 4096), b.corrupt_bit(step, dpu, 4096));
      fired += a.transfer_corrupt(step, dpu) ? 1 : 0;
    }
  }
  // ~30% of 1600 draws; wildly outside would mean a broken uniform draw.
  EXPECT_GT(fired, 300);
  EXPECT_LT(fired, 700);

  pim::FaultSpec other = spec;
  other.seed = 12;
  const pim::FaultPlan c(other);
  bool differs = false;
  for (std::uint64_t step = 0; step < 200 && !differs; ++step) {
    differs = a.transfer_corrupt(step, 0) != c.transfer_corrupt(step, 0);
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlanTest, StepWindowGatesEveryEvent) {
  const pim::FaultPlan plan(
      pim::FaultSpec::parse("seed=3,launch-transient=1,from-step=5,"
                            "until-step=8"));
  for (std::uint64_t step = 0; step < 16; ++step) {
    EXPECT_EQ(plan.launch_transient(step, 0), step >= 5 && step < 8) << step;
  }
  // Rate 1 fires on every in-window draw; rate 0 never fires.
  const pim::FaultPlan off(pim::FaultSpec::parse("seed=3"));
  for (std::uint64_t step = 0; step < 64; ++step) {
    EXPECT_FALSE(off.launch_transient(step, 0));
    EXPECT_FALSE(off.launch_permanent(step, 0));
    EXPECT_FALSE(off.rank_outage(step, 0));
    EXPECT_FALSE(off.transfer_corrupt(step, 0));
    EXPECT_FALSE(off.mram_bitflip(step, 0));
  }
}

// ---- injection-off bit-identity ---------------------------------------------

TEST(FaultInjectionTest, InertPlanIsBitIdenticalToNoPlan) {
  // An armed plan whose rates are all zero must not perturb the estimate,
  // the exactness verdict, or the modeled phase times in any config.
  const graph::EdgeList g = ba_hub_graph(21);
  for (const std::uint32_t colors : {3u, 4u, 5u}) {
    const engine::CountReport off = run_with_spec(g, "", colors);
    // checksum=off: not even the modeled checksum detection cost is
    // charged, so the phase times match to the bit as well.
    const engine::CountReport inert =
        run_with_spec(g, "seed=9,checksum=off", colors);
    EXPECT_EQ(inert.estimate, off.estimate) << colors;
    EXPECT_EQ(inert.exact, off.exact) << colors;
    EXPECT_EQ(inert.times.setup_s, off.times.setup_s) << colors;
    EXPECT_EQ(inert.times.ingest_s, off.times.ingest_s) << colors;
    EXPECT_EQ(inert.times.count_s, off.times.count_s) << colors;
    EXPECT_TRUE(inert.faults.injected);
    EXPECT_FALSE(inert.faults.degraded);
    EXPECT_FALSE(off.faults.injected);

    // With checksums on, the estimate is still untouched; only the modeled
    // detection cost appears.
    const engine::CountReport guarded = run_with_spec(g, "seed=9", colors);
    EXPECT_EQ(guarded.estimate, off.estimate) << colors;
    EXPECT_GT(guarded.faults.checksum_bytes, 0u) << colors;
    EXPECT_GE(guarded.times.count_s, off.times.count_s) << colors;
  }
}

// ---- recovery ---------------------------------------------------------------

TEST(FaultRecoveryTest, TransientRetriesAreBitIdentical) {
  const graph::EdgeList g = ba_hub_graph(22);
  const engine::CountReport clean = run_with_spec(g, "");
  const engine::CountReport faulty =
      run_with_spec(g, "seed=5,launch-transient=0.08");
  EXPECT_EQ(faulty.estimate, clean.estimate);
  EXPECT_EQ(faulty.exact, clean.exact);
  EXPECT_FALSE(faulty.faults.degraded);
  EXPECT_GT(faulty.faults.launch_transients, 0u);
  EXPECT_GE(faulty.faults.launch_retries, faulty.faults.launch_transients);
  EXPECT_GT(faulty.faults.recovery_s, 0.0);  // backoff is charged
  EXPECT_EQ(faulty.faults.dead_dpus, 0u);
}

TEST(FaultRecoveryTest, DeadBankRematerializesBitIdentical) {
  const graph::EdgeList g = ba_hub_graph(23);
  const engine::CountReport clean = run_with_spec(g, "");
  const engine::CountReport faulty =
      run_with_spec(g, "seed=5,launch-permanent=0.05,spares=32");
  EXPECT_EQ(faulty.estimate, clean.estimate);
  EXPECT_EQ(faulty.exact, clean.exact);
  EXPECT_FALSE(faulty.faults.degraded);
  EXPECT_GT(faulty.faults.dead_dpus, 0u);
  EXPECT_EQ(faulty.faults.rematerializations, faulty.faults.dead_dpus);
  EXPECT_EQ(faulty.faults.migrations, faulty.faults.rematerializations);
  EXPECT_EQ(faulty.faults.dropped_triplets, 0u);
  EXPECT_GT(faulty.faults.recovery_s, 0.0);  // restore transfers are charged
}

TEST(FaultRecoveryTest, ChurnedSessionRematerializesBitIdentical) {
  // Same property on a fully-dynamic session: inserts, a recount, deletions
  // of a quarter of the edges, then the faulted recount.
  const graph::EdgeList g = ba_hub_graph(24);
  std::vector<EdgeUpdate> deletes;
  for (std::size_t i = 0; i < g.num_edges(); i += 4) {
    deletes.push_back(delete_of(g[i]));
  }
  const auto run = [&](const std::string& spec) {
    engine::EngineConfig cfg = base_config();
    cfg.fault_spec = spec;
    tc::PimTriangleCounter counter(cfg);
    counter.add_edges(g.edges());
    (void)counter.recount();
    counter.apply(deletes);
    return counter.recount();
  };
  const engine::CountReport clean = run("");
  const engine::CountReport faulty =
      run("seed=6,launch-permanent=0.1,spares=32");
  EXPECT_EQ(faulty.estimate, clean.estimate);
  EXPECT_GT(faulty.faults.rematerializations, 0u);
  EXPECT_FALSE(faulty.faults.degraded);
}

TEST(FaultRecoveryTest, RankOutageRecoversThroughSpares) {
  // Kill whole ranks (8 DPUs each here); generous spares must absorb them
  // with no estimate change.
  const graph::EdgeList g = ba_hub_graph(25);
  engine::EngineConfig cfg = base_config();
  cfg.pim.dpus_per_rank = 8;
  tc::PimTriangleCounter clean_counter(cfg);
  const engine::CountReport clean = clean_counter.count(g);

  cfg.fault_spec = "seed=19,rank-outage=0.25,spares=64";
  tc::PimTriangleCounter faulty_counter(cfg);
  const engine::CountReport faulty = faulty_counter.count(g);
  ASSERT_GT(faulty.faults.rank_outages, 0u) << "seed drew no outage; pick "
                                               "another seed";
  EXPECT_EQ(faulty.estimate, clean.estimate);
  EXPECT_FALSE(faulty.faults.degraded);
  EXPECT_GE(faulty.faults.dead_dpus, 8u);  // at least one whole rank
}

TEST(FaultRecoveryTest, DegradedModeStaysWithinReportedBound) {
  // No spares and a permanent-fault hammer: triplets are dropped, the
  // estimate is reweighted by surviving coverage, and the realized error
  // must sit inside the widened bound the report advertises.
  const graph::EdgeList g = ba_hub_graph(26);
  const auto truth = static_cast<double>(graph::reference_triangle_count(g));
  const engine::CountReport r =
      run_with_spec(g, "seed=8,launch-permanent=0.15,recovery=degrade");
  ASSERT_GT(r.faults.dropped_triplets, 0u);
  EXPECT_TRUE(r.faults.degraded);
  EXPECT_FALSE(r.exact);
  EXPECT_LT(r.faults.coverage, 1.0);
  EXPECT_GT(r.faults.coverage, 0.0);
  EXPECT_GT(r.faults.error_bound, 0.0);
  const double rel_err = std::abs(r.estimate - truth) / truth;
  EXPECT_LE(rel_err, r.faults.error_bound)
      << "estimate " << r.estimate << " truth " << truth << " coverage "
      << r.faults.coverage;
}

TEST(FaultRecoveryTest, RetryPolicyDropsDeadBanksInsteadOfMigrating) {
  const graph::EdgeList g = ba_hub_graph(27);
  const engine::CountReport r =
      run_with_spec(g, "seed=8,launch-permanent=0.1,recovery=retry");
  ASSERT_GT(r.faults.dead_dpus, 0u);
  EXPECT_EQ(r.faults.rematerializations, 0u);
  EXPECT_EQ(r.faults.dropped_triplets, r.faults.dead_dpus);
  EXPECT_TRUE(r.faults.degraded);
}

// ---- transfer corruption ----------------------------------------------------

TEST(TransferCorruptionTest, ChecksummedRepairIsBitIdentical) {
  const graph::EdgeList g = ba_hub_graph(28);
  const engine::CountReport clean = run_with_spec(g, "");
  const engine::CountReport faulty = run_with_spec(g, "seed=4,corrupt=0.08");
  ASSERT_GT(faulty.faults.transfer_corruptions, 0u);
  EXPECT_EQ(faulty.estimate, clean.estimate);
  EXPECT_EQ(faulty.exact, clean.exact);
  EXPECT_GE(faulty.faults.transfer_retries,
            faulty.faults.transfer_corruptions);
  EXPECT_GT(faulty.faults.checksum_bytes, 0u);
  EXPECT_GT(faulty.faults.detection_s, 0.0);
  EXPECT_FALSE(faulty.faults.degraded);
}

TEST(TransferCorruptionTest, UncheckedCorruptionGoesUndetected) {
  // checksum=off: the same wire corruption reaches the machine silently —
  // no detection counters, no repair cost.  (The estimate may or may not
  // move; silence is the property under test.)
  const graph::EdgeList g = ba_hub_graph(28);
  const engine::CountReport r =
      run_with_spec(g, "seed=4,corrupt=0.01,checksum=off");
  EXPECT_EQ(r.faults.transfer_corruptions, 0u);
  EXPECT_EQ(r.faults.transfer_retries, 0u);
  EXPECT_EQ(r.faults.checksum_bytes, 0u);
  EXPECT_EQ(r.faults.detection_s, 0.0);
}

// ---- MRAM bit flips ---------------------------------------------------------

TEST(BitflipTest, ScrubRestoreIsBitIdentical) {
  const graph::EdgeList g = ba_hub_graph(29);
  const engine::CountReport clean = run_with_spec(g, "");
  const engine::CountReport faulty = run_with_spec(g, "seed=2,bitflip=0.2");
  ASSERT_GT(faulty.faults.mram_bitflips, 0u);
  EXPECT_EQ(faulty.faults.sample_restores, faulty.faults.mram_bitflips);
  EXPECT_EQ(faulty.estimate, clean.estimate);
  EXPECT_EQ(faulty.exact, clean.exact);
  EXPECT_FALSE(faulty.faults.degraded);
  EXPECT_GT(faulty.faults.detection_s, 0.0);  // scrub cost is charged
}

TEST(BitflipTest, WithoutChecksumsFlipsAreCountedButNotScrubbed) {
  const graph::EdgeList g = ba_hub_graph(29);
  const engine::CountReport r =
      run_with_spec(g, "seed=2,bitflip=0.2,checksum=off");
  EXPECT_GT(r.faults.mram_bitflips, 0u);
  EXPECT_EQ(r.faults.sample_restores, 0u);
  EXPECT_FALSE(r.faults.degraded);  // the sample is corrupt, not lost
}

// ---- SampleMirror restore primitive (ISSUE 9 satellite) ---------------------

TEST(RestoreBankTest, RestoreIsBitIdenticalOnInsertOnlySession) {
  // Mid-session, wipe every bank's resident state and restore it from the
  // host mirrors; the continued session must match an uninterrupted one.
  const graph::EdgeList g = ba_hub_graph(30);
  const std::size_t half = g.num_edges() / 2;

  engine::EngineConfig cfg = base_config();
  tc::PimTriangleCounter uninterrupted(cfg);
  uninterrupted.add_edges(g.edges());
  const engine::CountReport want = uninterrupted.recount();

  tc::PimTriangleCounter counter(cfg);
  counter.add_edges(g.edges().subspan(0, half));
  (void)counter.recount();
  counter.ensure_mirrors();
  const std::uint32_t triplets = counter.triplets().num_triplets();
  for (std::uint32_t t = 0; t < triplets; ++t) {
    ASSERT_FALSE(counter.triplet_lost(t));
    counter.restore_bank(t);
  }
  counter.add_edges(g.edges().subspan(half));
  const engine::CountReport got = counter.recount();
  EXPECT_EQ(got.estimate, want.estimate);
  EXPECT_EQ(got.exact, want.exact);
}

TEST(RestoreBankTest, RestoreIsBitIdenticalOnChurnedSession) {
  const graph::EdgeList g = ba_hub_graph(31);
  std::vector<EdgeUpdate> churn;
  for (std::size_t i = 0; i < g.num_edges(); i += 5) {
    churn.push_back(delete_of(g[i]));
  }
  engine::EngineConfig cfg = base_config();

  tc::PimTriangleCounter uninterrupted(cfg);
  uninterrupted.add_edges(g.edges());
  uninterrupted.apply(churn);
  const engine::CountReport want = uninterrupted.recount();

  tc::PimTriangleCounter counter(cfg);
  counter.add_edges(g.edges());
  (void)counter.recount();
  counter.ensure_mirrors();
  counter.restore_bank(0);
  counter.restore_bank(counter.triplets().num_triplets() - 1);
  counter.apply(churn);
  const engine::CountReport got = counter.recount();
  EXPECT_EQ(got.estimate, want.estimate);
}

TEST(RestoreBankTest, PreconditionsAreEnforced) {
  engine::EngineConfig cfg = base_config();
  tc::PimTriangleCounter counter(cfg);
  counter.add_edges(ba_hub_graph(32).edges());
  EXPECT_THROW(counter.restore_bank(1u << 20), std::invalid_argument);
  EXPECT_THROW(counter.restore_bank(0), std::logic_error);  // no mirrors yet
  counter.ensure_mirrors();
  EXPECT_NO_THROW(counter.restore_bank(0));
}

// ---- engine plumbing --------------------------------------------------------

TEST(FaultEngineTest, FaultSpecFlowsThroughEngineConfig) {
  graph::EdgeList g = ba_hub_graph(33);
  engine::EngineConfig cfg;
  cfg.num_colors = 4;
  cfg.fault_spec = "seed=5,launch-transient=0.08";
  auto clean_cfg = cfg;
  clean_cfg.fault_spec.clear();

  const engine::CountReport clean =
      engine::make_engine("pim", clean_cfg)->count(g);
  const engine::CountReport faulty = engine::make_engine("pim", cfg)->count(g);
  EXPECT_TRUE(faulty.faults.injected);
  EXPECT_GT(faulty.faults.launch_transients, 0u);
  EXPECT_EQ(faulty.estimate, clean.estimate);
  EXPECT_FALSE(clean.faults.injected);
}

TEST(FaultEngineTest, MalformedSpecIsRejectedAtValidation) {
  engine::EngineConfig cfg;
  cfg.num_colors = 4;
  cfg.fault_spec = "bogus=1";
  EXPECT_THROW(engine::make_engine("pim", cfg), std::invalid_argument);
  // Backend-independent: validation runs before the backend is built.
  EXPECT_THROW(engine::make_engine("cpu", cfg), std::invalid_argument);
}

}  // namespace
}  // namespace pimtc
