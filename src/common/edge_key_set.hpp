// Flat set of canonical 64-bit edge keys (common/types.hpp edge_key of a
// canonical() edge) — the one dedup and edge-membership structure of the
// library: file preprocessing, streamed ingest, the generators and the
// exact dynamic engines all use it.
//
// Open addressing with linear probing over a power-of-two slot array, kept
// at load <= 0.5, so a distinct key costs 16 bytes of slots and a lookup
// touches one or two cache lines.  A node-based std::unordered_set spends
// a heap node per key and a pointer chase per probe; on a 1.4M-edge file
// that was most of `pimtc count`'s host time.  Deletion shifts the
// following cluster back (no tombstones), so a long ± stream never degrades
// probe lengths.  Slots hash with the splitmix64 finalizer of
// std::hash<Edge>.
//
// Slot value 0 marks an empty slot; key 0 (the loop (0,0), which callers
// that keep loops may insert) is tracked by a flag beside the array.  A
// default-constructed set allocates nothing until its first insert or
// reserve.  Iteration order is the slot order: callers that need the
// input order (every dedup filter) walk their input and ask insert().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace pimtc {

class EdgeKeySet {
 public:
  [[nodiscard]] std::size_t size() const noexcept {
    return size_ + (has_zero_ ? 1 : 0);
  }
  /// Slots allocated (0 before first use).  Holds up to capacity() / 2 keys
  /// before the next doubling.
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Makes room for `n` keys without a rehash.
  void reserve(std::size_t n) {
    const std::size_t want = slots_for(n);
    if (want > slots_.size()) rehash(want);
  }

  /// Inserts `key`; returns false when it was already present.
  bool insert(std::uint64_t key) {
    if (key == 0) return !std::exchange(has_zero_, true);
    if (2 * (size_ + 1) > slots_.size()) rehash(slots_for(size_ + 1));
    std::size_t i = home(key);
    while (slots_[i] != 0) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask_;
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    if (key == 0) return has_zero_;
    if (size_ == 0) return false;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i] == key) return true;
      if (slots_[i] == 0) return false;
    }
  }

  /// How far ahead of its inserts a bulk filter prefetches.  On a 4-vCPU
  /// x86 VM it took about 20% off the dedup of a 1.4M-edge graph, whose
  /// 32 MB slot array is far larger than the caches.
  static constexpr std::size_t kPrefetchDistance = 16;

  /// Starts loading the cache line where a lookup of `key` begins.  A bulk
  /// filter calls it kPrefetchDistance keys ahead so the misses of
  /// consecutive inserts overlap instead of queueing.
  void prefetch(std::uint64_t key) const noexcept {
    if (!slots_.empty()) __builtin_prefetch(slots_.data() + home(key));
  }

  /// Removes `key`; returns false when it was absent.
  bool erase(std::uint64_t key) noexcept {
    if (key == 0) return std::exchange(has_zero_, false);
    if (size_ == 0) return false;
    std::size_t hole = home(key);
    while (slots_[hole] != key) {
      if (slots_[hole] == 0) return false;
      hole = (hole + 1) & mask_;
    }
    // Backward shift: pull each later key of the cluster whose home does
    // not lie cyclically in (hole, j] into the hole, until an empty slot.
    for (std::size_t j = (hole + 1) & mask_; slots_[j] != 0;
         j = (j + 1) & mask_) {
      const std::size_t h = home(slots_[j]);
      const bool stays =
          hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (stays) continue;
      slots_[hole] = slots_[j];
      hole = j;
    }
    slots_[hole] = 0;
    --size_;
    return true;
  }

  /// Empties the set and keeps its slots (a chunk-scoped filter reuses
  /// them for the next chunk).
  void clear() noexcept {
    if (size_ != 0) std::fill(slots_.begin(), slots_.end(), 0);
    size_ = 0;
    has_zero_ = false;
  }

  /// Calls f(key) for every key, in slot order.
  template <typename F>
  void for_each(F&& f) const {
    if (has_zero_) f(std::uint64_t{0});
    for (const std::uint64_t key : slots_) {
      if (key != 0) f(key);
    }
  }

 private:
  static constexpr std::size_t kMinSlots = 16;

  /// Power-of-two slot count that holds `n` keys at load <= 0.5.
  [[nodiscard]] static std::size_t slots_for(std::size_t n) noexcept {
    std::size_t slots = kMinSlots;
    while (slots < 2 * n) slots *= 2;
    return slots;
  }

  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return std::hash<Edge>{}(edge_from_key(key)) & mask_;
  }

  void rehash(std::size_t slots) {
    std::vector<std::uint64_t> old(slots, 0);
    old.swap(slots_);
    mask_ = slots - 1;
    for (const std::uint64_t key : old) {
      if (key == 0) continue;
      std::size_t i = home(key);
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = key;
    }
  }

  std::vector<std::uint64_t> slots_;  ///< 0 = empty
  std::size_t mask_ = 0;
  std::size_t size_ = 0;   ///< nonzero keys in slots_
  bool has_zero_ = false;  ///< key 0 lives beside the array
};

}  // namespace pimtc
