// Unit tests for common/edge_key_set.hpp: the flat canonical-edge-key set
// against std::unordered_set under a long seeded random operation mix, and
// the corners of its open addressing — key 0 and the all-ones key, keys
// that share a home slot (including a cluster that wraps past the last
// slot), absent-key erase, growth across doublings and clear() after
// growth.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/edge_key_set.hpp"
#include "common/prng.hpp"
#include "common/types.hpp"

namespace pimtc {
namespace {

constexpr NodeId kMaxNode = std::numeric_limits<NodeId>::max();
constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};

[[nodiscard]] std::vector<std::uint64_t> sorted_keys(const EdgeKeySet& set) {
  std::vector<std::uint64_t> keys;
  set.for_each([&](std::uint64_t k) { keys.push_back(k); });
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Slot a key starts probing from in a table of `slots` slots.
[[nodiscard]] std::size_t home_slot(std::uint64_t key, std::size_t slots) {
  return std::hash<Edge>{}(edge_from_key(key)) & (slots - 1);
}

/// The `n` smallest nonzero keys whose home slot in a `slots`-slot table is
/// `slot`.
[[nodiscard]] std::vector<std::uint64_t> colliding_keys(std::size_t n,
                                                        std::size_t slots,
                                                        std::size_t slot) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 1; keys.size() < n; ++k) {
    if (home_slot(k, slots) == slot) keys.push_back(k);
  }
  return keys;
}

TEST(EdgeKeySetTest, MatchesUnorderedSetUnderRandomOperations) {
  // 1M seeded insert/erase/contains over a small key universe (so erases
  // and repeat inserts hit), salted with the boundary keys.
  Xoshiro256ss rng(2024);
  std::vector<std::uint64_t> universe;
  for (int i = 0; i < 20'000; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(1u << 16));
    const auto v = static_cast<NodeId>(rng.next_below(1u << 16));
    universe.push_back(edge_key(Edge{u, v}.canonical()));
  }
  for (const NodeId x : {NodeId{0}, NodeId{1}, kMaxNode - 1, kMaxNode}) {
    universe.push_back(edge_key(Edge{x, kMaxNode}));
    universe.push_back(edge_key(Edge{0, x}));
  }
  universe.push_back(kAllOnes);

  EdgeKeySet set;
  std::unordered_set<std::uint64_t> oracle;
  for (int op = 0; op < 1'000'000; ++op) {
    const std::uint64_t key = universe[rng.next_below(universe.size())];
    switch (rng.next_below(3)) {
      case 0:
        ASSERT_EQ(set.insert(key), oracle.insert(key).second) << op;
        break;
      case 1:
        ASSERT_EQ(set.erase(key), oracle.erase(key) != 0) << op;
        break;
      default:
        ASSERT_EQ(set.contains(key), oracle.contains(key)) << op;
    }
    ASSERT_EQ(set.size(), oracle.size()) << op;
  }
  std::vector<std::uint64_t> expect(oracle.begin(), oracle.end());
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(sorted_keys(set), expect);
  EXPECT_LE(2 * set.size(), set.capacity());
}

TEST(EdgeKeySetTest, DefaultConstructedAllocatesNothing) {
  EdgeKeySet set;
  EXPECT_EQ(set.capacity(), 0u);
  EXPECT_FALSE(set.contains(42));
  EXPECT_FALSE(set.erase(42));
  set.prefetch(42);
  set.clear();
  EXPECT_EQ(set.capacity(), 0u);
  EXPECT_EQ(set.size(), 0u);
}

TEST(EdgeKeySetTest, BoundaryKeysAreOrdinaryMembers) {
  // Key 0 is the loop (0,0) and lives beside the slot array; the all-ones
  // key is the loop (UINT32_MAX, UINT32_MAX).
  const std::vector<std::uint64_t> keys = {
      0,
      kAllOnes,
      edge_key(Edge{0, kMaxNode}),
      edge_key(Edge{kMaxNode - 1, kMaxNode}),
      edge_key(Edge{1, kMaxNode}),
  };
  EdgeKeySet set;
  for (const std::uint64_t k : keys) EXPECT_TRUE(set.insert(k)) << k;
  for (const std::uint64_t k : keys) EXPECT_FALSE(set.insert(k)) << k;
  EXPECT_EQ(set.size(), keys.size());
  for (const std::uint64_t k : keys) EXPECT_TRUE(set.contains(k)) << k;

  std::vector<std::uint64_t> expect = keys;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(sorted_keys(set), expect);

  EXPECT_TRUE(set.erase(0));
  EXPECT_FALSE(set.contains(0));
  EXPECT_TRUE(set.contains(kAllOnes));
  EXPECT_TRUE(set.erase(kAllOnes));
  EXPECT_FALSE(set.contains(kAllOnes));
  EXPECT_EQ(set.size(), keys.size() - 2);
}

TEST(EdgeKeySetTest, CollidingKeysSurviveEraseFromAnyClusterPosition) {
  // A 16-slot table holds up to 8 keys.  Seven keys build one cluster that
  // wraps past the last slot: two homed at slot 14 (slots 14, 15), three
  // at slot 0 (slots 0-2), one at slot 15 (displaced to slot 3) and one at
  // slot 1 (slot 4).  Erasing each position in turn must keep every other
  // key reachable: backward-shift deletion must move a key only to a slot
  // cyclically between its home and its place, across the wrap too.
  constexpr std::size_t kSlots = 16;
  std::vector<std::uint64_t> keys;
  for (const auto& [home, count] : std::vector<std::pair<std::size_t, std::size_t>>{
           {kSlots - 2, 2}, {0, 3}, {kSlots - 1, 1}, {1, 1}}) {
    for (const std::uint64_t k : colliding_keys(count, kSlots, home)) {
      keys.push_back(k);
    }
  }

  for (std::size_t victim = 0; victim < keys.size(); ++victim) {
    EdgeKeySet set;
    set.reserve(keys.size());
    ASSERT_EQ(set.capacity(), kSlots);
    for (const std::uint64_t k : keys) ASSERT_TRUE(set.insert(k));
    ASSERT_EQ(set.capacity(), kSlots);  // no growth: the probes stayed put

    EXPECT_TRUE(set.erase(keys[victim]));
    EXPECT_FALSE(set.contains(keys[victim]));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (i != victim) EXPECT_TRUE(set.contains(keys[i])) << victim << " " << i;
    }
    EXPECT_EQ(set.size(), keys.size() - 1);
    EXPECT_TRUE(set.insert(keys[victim]));  // reinsert reuses the freed slot
    EXPECT_EQ(set.size(), keys.size());
  }
}

TEST(EdgeKeySetTest, EraseOfAbsentKeysIsANoOp) {
  constexpr std::size_t kSlots = 16;
  const std::vector<std::uint64_t> keys = colliding_keys(6, kSlots, 3);
  EdgeKeySet set;
  for (std::size_t i = 0; i < 4; ++i) set.insert(keys[i]);
  // Absent keys with the same home walk the whole cluster before failing.
  EXPECT_FALSE(set.erase(keys[4]));
  EXPECT_FALSE(set.erase(keys[5]));
  EXPECT_FALSE(set.erase(0));
  EXPECT_FALSE(set.erase(kAllOnes));
  EXPECT_EQ(set.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(set.contains(keys[i]));
  EXPECT_TRUE(set.erase(keys[1]));
  EXPECT_FALSE(set.erase(keys[1]));  // already gone
  EXPECT_EQ(set.size(), 3u);
}

TEST(EdgeKeySetTest, GrowsByDoublingAtHalfLoad) {
  EdgeKeySet set;
  std::vector<std::size_t> capacities;
  constexpr std::uint64_t kKeys = 200'000;
  for (std::uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_TRUE(set.insert(k * 0x9e3779b97f4a7c15ull));
    if (capacities.empty() || set.capacity() != capacities.back()) {
      capacities.push_back(set.capacity());
    }
    ASSERT_LE(2 * set.size(), set.capacity());
  }
  ASSERT_GE(capacities.size(), 10u);  // several doublings
  EXPECT_EQ(capacities.front(), 16u);
  for (std::size_t i = 1; i < capacities.size(); ++i) {
    EXPECT_EQ(capacities[i], 2 * capacities[i - 1]);
  }
  for (std::uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_TRUE(set.contains(k * 0x9e3779b97f4a7c15ull)) << k;
  }
  EXPECT_EQ(set.size(), kKeys);
}

TEST(EdgeKeySetTest, ReserveAvoidsRehashAndKeepsKeys) {
  EdgeKeySet set;
  set.insert(7);
  set.reserve(1000);
  const std::size_t slots = set.capacity();
  EXPECT_GE(slots, 2000u);
  EXPECT_TRUE(set.contains(7));
  for (std::uint64_t k = 100; k < 1099; ++k) set.insert(k);
  EXPECT_EQ(set.capacity(), slots);
  set.reserve(10);  // never shrinks
  EXPECT_EQ(set.capacity(), slots);
}

TEST(EdgeKeySetTest, ClearAfterGrowthKeepsSlotsAndEmpties) {
  EdgeKeySet set;
  for (std::uint64_t k = 0; k < 5000; ++k) set.insert(k);
  const std::size_t slots = set.capacity();
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.capacity(), slots);
  for (std::uint64_t k = 0; k < 5000; ++k) ASSERT_FALSE(set.contains(k)) << k;
  EXPECT_TRUE(sorted_keys(set).empty());
  for (std::uint64_t k = 0; k < 5000; k += 2) EXPECT_TRUE(set.insert(k));
  EXPECT_EQ(set.size(), 2500u);
  EXPECT_EQ(set.capacity(), slots);
}

}  // namespace
}  // namespace pimtc
