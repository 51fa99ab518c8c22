// Reservoir sampling (paper Section 3.3, after TRIÈST).
//
// Each PIM core keeps at most M edges in its DRAM bank.  For the t-th edge
// offered (t > M) a biased coin with heads probability M/t decides whether a
// uniformly random resident edge is replaced.  The decision logic is
// factored out of the storage (`ReservoirPolicy`) because in the simulator
// the storage is the DPU's MRAM, not a host vector; `ReservoirSampler<T>`
// composes the two for host-side use and tests.
//
// Fully-dynamic streams extend the policy with random pairing (Gemulla et
// al., after TRIÈST-FD): a deletion that hits the sample evicts the resident
// item and leaves a "vacancy" (del_in); one that misses it is only counted
// (del_out).  While uncompensated deletions exist, the next insertions pair
// off against them — entering the sample with probability
// del_in / (del_in + del_out) — instead of running the plain reservoir coin.
// The resulting sample is a uniform subset of the *current* population, and
// the estimator's correction uses effective_seen() = net size + pending
// deletions in place of the insert-only t.  Streams without deletions take
// exactly the legacy code path (same RNG draws, same decisions), so
// insert-only estimates are bit-identical to the pre-deletion behavior.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/prng.hpp"

namespace pimtc::sketch {

/// Decision outcomes for one offered item.
struct ReservoirDecision {
  enum class Action : std::uint8_t {
    kAppend,   // t <= M: store at the next free slot
    kReplace,  // heads: overwrite slot `slot`
    kDiscard,  // tails: drop the offered item
  };
  Action action = Action::kDiscard;
  std::uint64_t slot = 0;
};

class ReservoirPolicy {
 public:
  ReservoirPolicy(std::uint64_t capacity, std::uint64_t seed)
      : capacity_(capacity), rng_(seed) {}

  /// Registers the next offered insertion and returns what to do with it.
  /// Appends always target the next free slot, so the stored prefix stays
  /// compact (deletions swap-fill from the top; see SampleMirror).
  ReservoirDecision offer() {
    ++seen_;
    ++size_;
    const std::uint64_t pending = del_in_ + del_out_;
    if (pending == 0) {
      if (stored_ < capacity_) {
        ++stored_;
        return {ReservoirDecision::Action::kAppend, stored_ - 1};
      }
      // Heads with probability M/t over the current population: keep the
      // newcomer in a random slot.  With no deletions size_ == seen_, so
      // this is the legacy draw bit for bit.
      if (rng_.next_below(size_) < capacity_) {
        return {ReservoirDecision::Action::kReplace,
                rng_.next_below(capacity_)};
      }
      return {ReservoirDecision::Action::kDiscard, 0};
    }
    // Random pairing: this insertion compensates one uncompensated deletion,
    // chosen uniformly among them; a del_in vacancy re-fills the sample.
    if (rng_.next_below(pending) < del_in_) {
      --del_in_;
      ++stored_;
      return {ReservoirDecision::Action::kAppend, stored_ - 1};
    }
    --del_out_;
    return {ReservoirDecision::Action::kDiscard, 0};
  }

  /// Registers `n` insertions that are all appends: the state `n` offer()
  /// calls reach when nothing is pending and they all fit, where offer()
  /// draws no coin.  Callers that write the appended items straight into
  /// their slots (slots stored() .. stored() + n - 1) use it instead.
  void offer_appends(std::uint64_t n) {
    if (pending_deletions() != 0 || stored_ + n > capacity_) {
      throw std::logic_error(
          "ReservoirPolicy::offer_appends: the offers would not all append");
    }
    seen_ += n;
    size_ += n;
    stored_ += n;
  }

  /// Registers a deletion that evicted a resident sample item.  The caller
  /// (who owns the storage) must also shrink the stored prefix by one
  /// (swap-fill from the top; see SampleMirror).
  void remove_resident() {
    --size_;  // a resident item is live, so size_ > 0 here
    ++deletions_;
    ++del_in_;
    ++evictions_;
    --stored_;
  }

  /// Registers a deletion that matched no resident item.  While the sample
  /// covers the whole live population (stored == net size — i.e. the
  /// reservoir never overflowed for the current stream) a miss is provably
  /// a deletion of a never-inserted edge: it is dropped as a counted no-op
  /// instead of poisoning the pairing counters (which would silently
  /// discard the next live insertion; size_ would even wrap at zero).
  /// Once the sample is a strict subset a miss is genuinely ambiguous and
  /// becomes an out-of-sample deletion (del_out), which is why the caller
  /// contract says deletions should target existing edges.  Returns true
  /// when the deletion was accepted as real.
  bool remove_missing() {
    if (stored_ == size_) {
      ++phantom_deletions_;
      return false;
    }
    --size_;
    ++deletions_;
    ++del_out_;
    return true;
  }

  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }

  /// Total insertions offered so far (load accounting; equals the
  /// correction-factor t only for insert-only streams).
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }

  /// The `t` of the correction factor under random pairing: current net
  /// population plus uncompensated deletions.  Equal to seen() on
  /// insert-only streams; the sample is a uniform min(M, t)-subset of the
  /// conceptual t-population restricted to live items.
  [[nodiscard]] std::uint64_t effective_seen() const noexcept {
    return size_ + del_in_ + del_out_;
  }

  /// Net population size (insertions minus deletions).
  [[nodiscard]] std::uint64_t net_size() const noexcept { return size_; }

  [[nodiscard]] std::uint64_t stored() const noexcept { return stored_; }

  /// Total deletions registered / deletions that evicted a resident item.
  [[nodiscard]] std::uint64_t deletions() const noexcept { return deletions_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

  /// Deletions provably targeting never-inserted items, dropped as no-ops
  /// (only detectable while the sample covers the live population).
  [[nodiscard]] std::uint64_t phantom_deletions() const noexcept {
    return phantom_deletions_;
  }

  /// Uncompensated deletions outstanding (random-pairing debt).
  [[nodiscard]] std::uint64_t pending_deletions() const noexcept {
    return del_in_ + del_out_;
  }

 private:
  std::uint64_t capacity_;
  std::uint64_t seen_ = 0;
  std::uint64_t size_ = 0;    ///< net population (inserts - deletes)
  std::uint64_t stored_ = 0;  ///< resident sample size
  std::uint64_t del_in_ = 0;   ///< uncompensated deletions that evicted
  std::uint64_t del_out_ = 0;  ///< uncompensated deletions that missed
  std::uint64_t deletions_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t phantom_deletions_ = 0;
  Xoshiro256ss rng_;
};

/// Batched reservoir ingestion: the host computes the decisions for a whole
/// batch up front and materializes them into a compact staging image that a
/// single bulk transfer can flush to the device.  Appends coalesce into one
/// contiguous run starting at `base_slot()`; replacements fold to their
/// final value (last offer to a slot wins, including a replacement landing
/// on an item appended earlier in the same batch, which is rewritten in the
/// staging image instead of becoming a second device write).
///
/// The object is intended to live as long as its reservoir and be reused
/// across batches — begin() clears content but keeps every allocation
/// (vectors, hash buckets, run scratch), so steady-state staging performs
/// no heap traffic.
template <typename T>
class ReservoirStaging {
 public:
  /// Starts a new batch.  `base_slot` is the next free append slot, i.e.
  /// the owning policy's stored() before the first offer of this batch.
  void begin(std::uint64_t base_slot) {
    base_slot_ = base_slot;
    appends_.clear();
    replaces_.clear();
    replace_index_.clear();
  }

  /// Offers `item` to `policy` and stages the resulting decision.
  void stage(ReservoirPolicy& policy, const T& item) {
    stage_decision(policy.offer(), item);
  }

  /// Stages a decision computed elsewhere (callers that also feed a
  /// SampleMirror need the decision themselves).
  void stage_decision(const ReservoirDecision& d, const T& item) {
    switch (d.action) {
      case ReservoirDecision::Action::kAppend:
        appends_.push_back(item);
        break;
      case ReservoirDecision::Action::kReplace:
        if (d.slot >= base_slot_ &&
            d.slot - base_slot_ < appends_.size()) {
          appends_[static_cast<std::size_t>(d.slot - base_slot_)] = item;
        } else {
          const auto [it, inserted] =
              replace_index_.try_emplace(d.slot, replaces_.size());
          if (inserted) {
            replaces_.emplace_back(d.slot, item);
          } else {
            replaces_[it->second].second = item;
          }
        }
        break;
      case ReservoirDecision::Action::kDiscard:
        break;
    }
  }

  [[nodiscard]] std::uint64_t base_slot() const noexcept { return base_slot_; }
  [[nodiscard]] const std::vector<T>& appends() const noexcept {
    return appends_;
  }
  [[nodiscard]] std::uint64_t replace_count() const noexcept {
    return replaces_.size();
  }
  /// Items materialized in the image (appends + folded replacements).
  [[nodiscard]] std::uint64_t staged_items() const noexcept {
    return appends_.size() + replaces_.size();
  }
  [[nodiscard]] bool empty() const noexcept {
    return appends_.empty() && replaces_.empty();
  }

  /// Invokes fn(first_slot, items_ptr, count) once per maximal run of
  /// consecutive replaced slots (final values).  Sorts the staged
  /// replacements; call once per batch, after staging is complete.
  template <typename Fn>
  void for_each_replace_run(Fn&& fn) {
    std::sort(replaces_.begin(), replaces_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t i = 0;
    while (i < replaces_.size()) {
      run_scratch_.clear();
      const std::uint64_t first = replaces_[i].first;
      std::uint64_t expected = first;
      while (i < replaces_.size() && replaces_[i].first == expected) {
        run_scratch_.push_back(replaces_[i].second);
        ++expected;
        ++i;
      }
      fn(first, run_scratch_.data(), run_scratch_.size());
    }
  }

 private:
  std::uint64_t base_slot_ = 0;
  std::vector<T> appends_;
  std::vector<std::pair<std::uint64_t, T>> replaces_;
  std::unordered_map<std::uint64_t, std::size_t> replace_index_;
  std::vector<T> run_scratch_;
};

/// Host-side mirror of one device-resident sample: slot -> item and
/// item -> slot.  The host computes every reservoir decision (the staging
/// images), so it can maintain an exact copy of the bank's sample content
/// without any device reads — which is what lets a deletion be resolved
/// (was it sampled? at which slot?) and staged as ordinary slot writes.
/// Eviction swap-fills the freed slot with the top item, keeping the
/// resident prefix [0, size()) compact so appends stay contiguous.
template <typename T>
class SampleMirror {
 public:
  /// Applies one staged insertion decision.
  void apply(const ReservoirDecision& d, const T& item) {
    switch (d.action) {
      case ReservoirDecision::Action::kAppend:
        index_[item] = slots_.size();
        slots_.push_back(item);
        break;
      case ReservoirDecision::Action::kReplace:
        index_.erase(slots_[static_cast<std::size_t>(d.slot)]);
        slots_[static_cast<std::size_t>(d.slot)] = item;
        index_[item] = d.slot;
        break;
      case ReservoirDecision::Action::kDiscard:
        break;
    }
  }

  /// Resolves a deletion against the resident sample.  Returns the evicted
  /// slot (the caller stages a device write of the swapped-in item unless
  /// the top slot itself was evicted), or no value when `item` is not
  /// resident.
  std::optional<std::uint64_t> evict(const T& item) {
    const auto it = index_.find(item);
    if (it == index_.end()) return std::nullopt;
    const std::uint64_t slot = it->second;
    index_.erase(it);
    const std::uint64_t last = slots_.size() - 1;
    if (slot != last) {
      slots_[static_cast<std::size_t>(slot)] =
          slots_[static_cast<std::size_t>(last)];
      index_[slots_[static_cast<std::size_t>(slot)]] = slot;
    }
    slots_.pop_back();
    return slot;
  }

  /// Rebuilds the mirror from the storage's resident content (slot order).
  /// Used to materialize mirrors lazily: insert-only sessions skip mirror
  /// maintenance entirely, and the first deletion reconstructs the
  /// occupancy map from one bulk read of the resident samples.
  void assign(std::vector<T> items) {
    slots_ = std::move(items);
    index_.clear();
    index_.reserve(slots_.size());
    for (std::uint64_t s = 0; s < slots_.size(); ++s) index_[slots_[s]] = s;
  }

  [[nodiscard]] bool contains(const T& item) const {
    return index_.contains(item);
  }
  [[nodiscard]] std::uint64_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] const T& at(std::uint64_t slot) const {
    return slots_[static_cast<std::size_t>(slot)];
  }
  [[nodiscard]] const std::vector<T>& items() const noexcept { return slots_; }

 private:
  std::vector<T> slots_;
  std::unordered_map<T, std::uint64_t> index_;
};

/// Host-side reservoir over arbitrary items.  Fully dynamic: remove()
/// handles deletions via random pairing.  The item type must be hashable
/// (deletions resolve sample membership through a SampleMirror).
template <typename T>
class ReservoirSampler {
 public:
  ReservoirSampler(std::uint64_t capacity, std::uint64_t seed)
      : policy_(capacity, seed) {}

  void offer(const T& item) { mirror_.apply(policy_.offer(), item); }

  /// Deletes an item from the sampled stream.  While nothing has been
  /// discarded the mirror covers the population and a never-inserted
  /// delete is a detected no-op; once the reservoir has overflowed the
  /// caller must guarantee the item was inserted before (a phantom delete
  /// is then indistinguishable from a discarded item and biases the
  /// pairing counters).
  void remove(const T& item) {
    if (mirror_.evict(item).has_value()) {
      policy_.remove_resident();
    } else {
      (void)policy_.remove_missing();
    }
  }

  [[nodiscard]] const std::vector<T>& items() const noexcept {
    return mirror_.items();
  }
  [[nodiscard]] std::uint64_t seen() const noexcept { return policy_.seen(); }
  [[nodiscard]] std::uint64_t effective_seen() const noexcept {
    return policy_.effective_seen();
  }
  [[nodiscard]] std::uint64_t net_size() const noexcept {
    return policy_.net_size();
  }
  [[nodiscard]] std::uint64_t capacity() const noexcept {
    return policy_.capacity();
  }

 private:
  ReservoirPolicy policy_;
  SampleMirror<T> mirror_;
};

}  // namespace pimtc::sketch
