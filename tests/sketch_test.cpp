// Tests for src/sketch: Misra-Gries guarantees, reservoir uniformity and
// unbiasedness, uniform sampler statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <vector>

#include "common/prng.hpp"
#include "sketch/misra_gries.hpp"
#include "sketch/reservoir.hpp"
#include "sketch/uniform_sampler.hpp"

namespace pimtc::sketch {
namespace {

// ---- Misra-Gries --------------------------------------------------------------

TEST(MisraGriesTest, RejectsZeroCapacity) {
  EXPECT_THROW(MisraGries(0), std::invalid_argument);
}

TEST(MisraGriesTest, TracksExactlyWhenUnderCapacity) {
  MisraGries mg(10);
  for (int rep = 0; rep < 5; ++rep) {
    for (NodeId u = 0; u < 4; ++u) mg.update(u);
  }
  for (NodeId u = 0; u < 4; ++u) EXPECT_EQ(mg.estimate(u), 5u);
  EXPECT_EQ(mg.estimate(99), 0u);
}

TEST(MisraGriesTest, NeverExceedsCapacity) {
  MisraGries mg(8);
  Xoshiro256ss rng(1);
  for (int i = 0; i < 10000; ++i) {
    mg.update(static_cast<NodeId>(rng.next_below(1000)));
    EXPECT_LE(mg.size(), 8u);
  }
}

TEST(MisraGriesTest, HeavyHitterGuarantee) {
  // Any node with frequency > n/K must be present at the end of the stream.
  constexpr std::size_t kK = 16;
  constexpr int kStream = 32000;
  MisraGries mg(kK);
  Xoshiro256ss rng(7);
  // Node 7 gets 20% of the stream (far above 1/16); the rest is uniform
  // noise over a large id space.
  int hot_count = 0;
  for (int i = 0; i < kStream; ++i) {
    if (rng.next_bernoulli(0.2)) {
      mg.update(7);
      ++hot_count;
    } else {
      mg.update(static_cast<NodeId>(1000 + rng.next_below(100000)));
    }
  }
  EXPECT_GT(mg.estimate(7), 0u) << "heavy hitter lost";
  // Underestimation bound: true - estimate <= updates / K.
  EXPECT_GE(mg.estimate(7) + mg.updates() / kK,
            static_cast<std::uint64_t>(hot_count));
}

TEST(MisraGriesTest, UnderestimatesOnly) {
  MisraGries mg(4);
  std::map<NodeId, std::uint64_t> truth;
  Xoshiro256ss rng(3);
  for (int i = 0; i < 5000; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(64));
    mg.update(u);
    ++truth[u];
  }
  for (const auto& [node, estimate] : mg.entries()) {
    EXPECT_LE(estimate, truth[node]);
  }
}

TEST(MisraGriesTest, MergePreservesHeavyHitters) {
  constexpr std::size_t kK = 8;
  MisraGries a(kK);
  MisraGries b(kK);
  Xoshiro256ss rng(9);
  // Node 5 is hot in both halves.
  for (int i = 0; i < 8000; ++i) {
    MisraGries& target = i % 2 == 0 ? a : b;
    if (rng.next_bernoulli(0.3)) {
      target.update(5);
    } else {
      target.update(static_cast<NodeId>(100 + rng.next_below(50000)));
    }
  }
  a.merge(b);
  EXPECT_LE(a.size(), kK);
  const auto top = a.top(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0], 5u);
}

TEST(MisraGriesTest, TopOrdersByFrequency) {
  MisraGries mg(16);
  for (int i = 0; i < 30; ++i) mg.update(3);
  for (int i = 0; i < 20; ++i) mg.update(1);
  for (int i = 0; i < 10; ++i) mg.update(2);
  const auto top = mg.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 3u);
  EXPECT_EQ(top[1], 1u);
  EXPECT_EQ(top[2], 2u);
}

TEST(MisraGriesTest, TopTruncatesAndTiesBreakBySmallerId) {
  MisraGries mg(16);
  mg.update(9);
  mg.update(4);  // tie at frequency 1
  const auto top = mg.top(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 4u);
  EXPECT_EQ(top[1], 9u);
}

TEST(MisraGriesTest, UpdateEdgeCountsBothEndpoints) {
  MisraGries mg(8);
  mg.update_edge({1, 2});
  mg.update_edge({1, 3});
  EXPECT_EQ(mg.estimate(1), 2u);
  EXPECT_EQ(mg.estimate(2), 1u);
  EXPECT_EQ(mg.updates(), 4u);
}

// ---- reservoir -----------------------------------------------------------------

TEST(ReservoirTest, KeepsEverythingUnderCapacity) {
  ReservoirSampler<int> r(100, 1);
  for (int i = 0; i < 80; ++i) r.offer(i);
  ASSERT_EQ(r.items().size(), 80u);
  for (int i = 0; i < 80; ++i) EXPECT_EQ(r.items()[i], i);
}

TEST(ReservoirTest, NeverExceedsCapacity) {
  ReservoirSampler<int> r(50, 2);
  for (int i = 0; i < 5000; ++i) {
    r.offer(i);
    EXPECT_LE(r.items().size(), 50u);
  }
  EXPECT_EQ(r.seen(), 5000u);
}

TEST(ReservoirTest, InclusionProbabilityIsUniform) {
  // Every item must survive with probability M/t.  Run many independent
  // reservoirs and check per-item inclusion frequency.
  constexpr std::uint64_t kM = 20;
  constexpr int kStream = 200;
  constexpr int kTrials = 3000;
  std::vector<int> included(kStream, 0);
  for (int trial = 0; trial < kTrials; ++trial) {
    ReservoirSampler<int> r(kM, 1000 + trial);
    for (int i = 0; i < kStream; ++i) r.offer(i);
    for (const int item : r.items()) ++included[item];
  }
  const double expected = kTrials * static_cast<double>(kM) / kStream;
  for (int i = 0; i < kStream; ++i) {
    EXPECT_NEAR(included[i], expected, expected * 0.30)
        << "item " << i << " over/under-sampled";
  }
}

TEST(ReservoirTest, PolicyCountsSeenAndStored) {
  ReservoirPolicy p(10, 3);
  for (int i = 0; i < 7; ++i) (void)p.offer();
  EXPECT_EQ(p.seen(), 7u);
  EXPECT_EQ(p.stored(), 7u);
  for (int i = 0; i < 13; ++i) (void)p.offer();
  EXPECT_EQ(p.seen(), 20u);
  EXPECT_EQ(p.stored(), 10u);
}

TEST(ReservoirTest, DecisionsAreValid) {
  ReservoirPolicy p(5, 4);
  for (std::uint64_t i = 0; i < 5; ++i) {
    const auto d = p.offer();
    EXPECT_EQ(d.action, ReservoirDecision::Action::kAppend);
    EXPECT_EQ(d.slot, i);
  }
  for (int i = 0; i < 1000; ++i) {
    const auto d = p.offer();
    EXPECT_NE(d.action, ReservoirDecision::Action::kAppend);
    if (d.action == ReservoirDecision::Action::kReplace) {
      EXPECT_LT(d.slot, 5u);
    }
  }
}

TEST(ReservoirTest, OfferAppendsMatchesThatManyOffers) {
  // Closed-form appends leave the policy exactly where the offers would,
  // RNG stream included: the next decisions agree.
  ReservoirPolicy bulk(12, 8);
  ReservoirPolicy one_by_one(12, 8);
  bulk.offer_appends(5);
  bulk.offer_appends(7);
  for (int i = 0; i < 12; ++i) (void)one_by_one.offer();
  EXPECT_EQ(bulk.seen(), 12u);
  EXPECT_EQ(bulk.stored(), 12u);
  EXPECT_EQ(bulk.net_size(), 12u);
  for (int i = 0; i < 200; ++i) {
    const ReservoirDecision a = bulk.offer();
    const ReservoirDecision b = one_by_one.offer();
    EXPECT_EQ(a.action, b.action);
    EXPECT_EQ(a.slot, b.slot);
  }
  // Past capacity, or with deletions pending, offers may not append.
  EXPECT_THROW(bulk.offer_appends(1), std::logic_error);
  ReservoirPolicy pending(12, 9);
  pending.offer_appends(3);
  pending.remove_resident();
  EXPECT_THROW(pending.offer_appends(1), std::logic_error);
}

TEST(ReservoirTest, ReplacementRateMatchesTheory) {
  // P(replace at step t) = M/t; total replacements over (M, N] concentrate
  // around M * ln(N/M).
  constexpr std::uint64_t kM = 64;
  constexpr std::uint64_t kN = 6400;
  int replaced = 0;
  ReservoirPolicy p(kM, 5);
  for (std::uint64_t i = 0; i < kN; ++i) {
    if (p.offer().action == ReservoirDecision::Action::kReplace) ++replaced;
  }
  const double expected = kM * std::log(static_cast<double>(kN) / kM);
  EXPECT_NEAR(replaced, expected, expected * 0.25);
}

// ---- batched reservoir staging ---------------------------------------------------

TEST(ReservoirStagingTest, MatchesPerItemApplicationExactly) {
  // Applying the staged image (append run + folded replacement runs) must
  // reproduce the per-item reference reservoir bit for bit: same policy
  // seed, same offers, same final slots.
  constexpr std::uint64_t kM = 32;
  constexpr int kStream = 500;
  ReservoirSampler<int> reference(kM, 99);
  ReservoirPolicy policy(kM, 99);
  ReservoirStaging<int> staging;
  std::vector<int> applied(kM, -1);

  int next = 0;
  for (int batch = 0; batch < 5; ++batch) {
    staging.begin(policy.stored());
    for (int i = 0; i < kStream / 5; ++i) {
      reference.offer(next);
      staging.stage(policy, next);
      ++next;
    }
    // Flush: contiguous appends, then coalesced replacement runs.
    std::copy(staging.appends().begin(), staging.appends().end(),
              applied.begin() + static_cast<std::ptrdiff_t>(staging.base_slot()));
    staging.for_each_replace_run(
        [&](std::uint64_t first_slot, const int* items, std::size_t n) {
          for (std::size_t k = 0; k < n; ++k) {
            applied[static_cast<std::size_t>(first_slot) + k] = items[k];
          }
        });
  }

  ASSERT_EQ(reference.items().size(), kM);
  for (std::size_t s = 0; s < kM; ++s) {
    EXPECT_EQ(applied[s], reference.items()[s]) << "slot " << s;
  }
}

TEST(ReservoirStagingTest, ReplaceRunsAreSortedDisjointAndDeduplicated) {
  // Fill the reservoir in a first batch so a second batch's replacements
  // target prior-batch slots and really land in the replacement image.
  ReservoirPolicy policy(16, 7);
  ReservoirStaging<int> staging;
  staging.begin(policy.stored());
  for (int i = 0; i < 16; ++i) staging.stage(policy, i);

  staging.begin(policy.stored());  // base 16: appends stay empty
  for (int i = 16; i < 2000; ++i) staging.stage(policy, i);
  EXPECT_TRUE(staging.appends().empty());
  EXPECT_GT(staging.replace_count(), 0u);

  std::uint64_t last_end = 0;
  bool first = true;
  std::uint64_t total = 0;
  staging.for_each_replace_run(
      [&](std::uint64_t first_slot, const int*, std::size_t n) {
        ASSERT_GT(n, 0u);
        // Runs are maximal: consecutive runs are separated by a gap.
        if (!first) EXPECT_GT(first_slot, last_end + 1);
        EXPECT_LE(first_slot + n, 16u);
        last_end = first_slot + n - 1;
        first = false;
        total += n;
      });
  EXPECT_EQ(total, staging.replace_count());
  EXPECT_LE(total, 16u);  // folded: at most one record per slot
}

TEST(ReservoirStagingTest, ReusedAcrossBatchesWithoutReallocating) {
  ReservoirPolicy policy(8, 11);
  ReservoirStaging<int> staging;
  staging.begin(policy.stored());
  for (int i = 0; i < 1000; ++i) staging.stage(policy, i);
  (void)staging.staged_items();
  const std::size_t append_cap = staging.appends().capacity();

  staging.begin(policy.stored());
  EXPECT_TRUE(staging.empty());
  EXPECT_EQ(staging.appends().capacity(), append_cap)
      << "begin() must keep buffer capacity (persistent staging)";
  for (int i = 0; i < 100; ++i) staging.stage(policy, i);
  EXPECT_EQ(staging.appends().capacity(), append_cap);
}

TEST(ReservoirStagingTest, ReplaceOfSameBatchAppendRewritesInPlace) {
  // Fill a tiny reservoir well past capacity inside ONE batch: every
  // replacement lands on a slot appended in the same batch and must fold
  // into the append image instead of emitting a replacement record.
  ReservoirPolicy policy(4, 13);
  ReservoirStaging<int> staging;
  staging.begin(policy.stored());  // base 0
  for (int i = 0; i < 400; ++i) staging.stage(policy, i);
  EXPECT_EQ(staging.appends().size(), 4u);
  EXPECT_EQ(staging.replace_count(), 0u);

  // Reference: identical policy applied item-by-item.
  ReservoirSampler<int> reference(4, 13);
  for (int i = 0; i < 400; ++i) reference.offer(i);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(staging.appends()[s], reference.items()[s]);
  }
}

// ---- uniform sampler -------------------------------------------------------------

TEST(UniformSamplerTest, KeepAllAtPOne) {
  UniformSampler s(1.0, 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(s.keep(Edge{static_cast<NodeId>(i), static_cast<NodeId>(i + 1)}));
  }
  EXPECT_EQ(s.kept(), 100u);
  EXPECT_DOUBLE_EQ(s.correction(), 1.0);
}

TEST(UniformSamplerTest, KeepRateConverges) {
  for (const double p : {0.5, 0.25, 0.1, 0.01}) {
    UniformSampler s(p, 77);
    const int n = 200000;
    int kept = 0;
    for (int i = 0; i < n; ++i) {
      kept += s.keep(Edge{1, 2});
    }
    EXPECT_NEAR(static_cast<double>(kept) / n, p, 0.05 * std::max(p, 0.02))
        << "p = " << p;
    EXPECT_DOUBLE_EQ(s.correction(), 1.0 / (p * p * p));
  }
}

TEST(UniformSamplerTest, DeterministicPerSeed) {
  UniformSampler a(0.3, 5);
  UniformSampler b(0.3, 5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.keep(Edge{1, 2}), b.keep(Edge{1, 2}));
  }
}

// ---- fully-dynamic reservoir (random pairing) -------------------------------

TEST(RandomPairingTest, InsertOnlyStreamIsBitIdenticalToLegacyPath) {
  // The deletion extension must not perturb insert-only behavior: same RNG
  // draws, same decisions, same counters.  Replay the documented legacy
  // algorithm side by side.
  constexpr std::uint64_t kM = 16;
  ReservoirPolicy p(kM, 99);
  Xoshiro256ss rng(99);  // the policy's own seed
  for (std::uint64_t t = 1; t <= 500; ++t) {
    const ReservoirDecision d = p.offer();
    if (t <= kM) {
      EXPECT_EQ(d.action, ReservoirDecision::Action::kAppend);
      EXPECT_EQ(d.slot, t - 1);
    } else if (rng.next_below(t) < kM) {
      EXPECT_EQ(d.action, ReservoirDecision::Action::kReplace);
      EXPECT_EQ(d.slot, rng.next_below(kM));
    } else {
      EXPECT_EQ(d.action, ReservoirDecision::Action::kDiscard);
    }
    EXPECT_EQ(p.effective_seen(), p.seen());
  }
}

TEST(RandomPairingTest, DeleteAllReturnsToEmpty) {
  ReservoirSampler<int> r(8, 7);
  for (int i = 0; i < 6; ++i) r.offer(i);
  for (int i = 0; i < 6; ++i) r.remove(i);
  EXPECT_EQ(r.items().size(), 0u);
  EXPECT_EQ(r.net_size(), 0u);
  // effective_seen never decreases: the deletions stay pending until
  // compensated by future insertions.
  EXPECT_EQ(r.effective_seen(), 6u);
}

TEST(RandomPairingTest, UnderCapacitySampleTracksPopulationExactly) {
  // While effective_seen <= M the sample must equal the live population
  // after any ± sequence (this is what makes small dynamic runs exact).
  ReservoirSampler<int> r(64, 11);
  std::vector<int> live;
  Xoshiro256ss rng(123);
  int next = 0;
  for (int step = 0; step < 40; ++step) {
    const bool del = !live.empty() && rng.next_below(3) == 0;
    if (del) {
      const std::size_t idx =
          static_cast<std::size_t>(rng.next_below(live.size()));
      r.remove(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      r.offer(next);
      live.push_back(next);
      ++next;
    }
    ASSERT_LE(r.effective_seen(), 64u);
    std::vector<int> sampled = r.items();
    std::vector<int> expect = live;
    std::sort(sampled.begin(), sampled.end());
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(sampled, expect);
  }
}

TEST(RandomPairingTest, InclusionStaysUniformUnderChurn) {
  // After inserting a stream, deleting a fixed subset and re-inserting new
  // items, every *live* item must still be included with equal probability.
  constexpr std::uint64_t kM = 20;
  constexpr int kFirst = 120;   // initial inserts: 0..119
  constexpr int kDeleted = 40;  // then delete 0..39
  constexpr int kSecond = 60;   // then insert 120..179
  constexpr int kTrials = 4000;
  std::vector<int> included(kFirst + kSecond, 0);
  for (int trial = 0; trial < kTrials; ++trial) {
    ReservoirSampler<int> r(kM, 5000 + trial);
    for (int i = 0; i < kFirst; ++i) r.offer(i);
    for (int i = 0; i < kDeleted; ++i) r.remove(i);
    for (int i = 0; i < kSecond; ++i) r.offer(kFirst + i);
    for (const int item : r.items()) {
      ASSERT_GE(item, kDeleted);  // deleted items never resurface
      ++included[item];
    }
  }
  const int live = kFirst - kDeleted + kSecond;
  double mean = 0.0;
  for (int i = kDeleted; i < kFirst + kSecond; ++i) mean += included[i];
  mean /= live;
  for (int i = kDeleted; i < kFirst + kSecond; ++i) {
    EXPECT_NEAR(included[i], mean, mean * 0.35) << "item " << i;
  }
}

TEST(RandomPairingTest, PhantomDeleteIsANoOpWhileSampleCoversPopulation) {
  // A delete that misses while stored == net size is provably targeting a
  // never-inserted item: counters must not move (registering it as
  // del_out would discard the next live insertion and wrap size_ at 0).
  ReservoirSampler<int> r(8, 13);
  r.remove(42);  // delete into an empty stream: detected no-op
  EXPECT_EQ(r.net_size(), 0u);
  EXPECT_EQ(r.effective_seen(), 0u);
  r.offer(1);
  r.offer(2);
  r.remove(99);  // never inserted, sample covers {1, 2}: detected no-op
  ASSERT_EQ(r.items().size(), 2u);
  EXPECT_EQ(r.effective_seen(), 2u);
  r.offer(3);  // must NOT be eaten by phantom pairing debt
  EXPECT_EQ(r.items().size(), 3u);
}

TEST(SampleMirrorTest, AssignRebuildsFromResidentContent) {
  SampleMirror<int> m;
  m.assign({5, 6, 7});
  EXPECT_EQ(m.size(), 3u);
  EXPECT_TRUE(m.contains(6));
  const auto slot = m.evict(5);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(*slot, 0u);
  EXPECT_EQ(m.at(0), 7);  // swap-filled from the top
}

TEST(SampleMirrorTest, TracksAppendsReplacesAndEvictions) {
  SampleMirror<int> m;
  m.apply({ReservoirDecision::Action::kAppend, 0}, 10);
  m.apply({ReservoirDecision::Action::kAppend, 1}, 11);
  m.apply({ReservoirDecision::Action::kAppend, 2}, 12);
  m.apply({ReservoirDecision::Action::kReplace, 1}, 21);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_FALSE(m.contains(11));
  EXPECT_TRUE(m.contains(21));

  // Evicting a middle slot swap-fills from the top and reports the slot.
  const auto slot = m.evict(10);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(*slot, 0u);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at(0), 12);  // top item moved down

  EXPECT_FALSE(m.evict(999).has_value());  // miss is detected, not fatal
}

TEST(MisraGriesTest, RemoveDecrementsAndDropsAtZero) {
  MisraGries mg(4);
  mg.update_edge({1, 2});
  mg.update_edge({1, 3});
  EXPECT_EQ(mg.estimate(1), 2u);
  mg.remove_edge({1, 2});
  EXPECT_EQ(mg.estimate(1), 1u);
  EXPECT_EQ(mg.estimate(2), 0u);  // dropped at zero
  mg.remove(7);                   // untracked: a counted no-op
  EXPECT_EQ(mg.estimate(7), 0u);
  EXPECT_EQ(mg.removals(), 3u);
  EXPECT_EQ(mg.updates(), 4u);  // insert updates unchanged by removals
}

}  // namespace
}  // namespace pimtc::sketch
