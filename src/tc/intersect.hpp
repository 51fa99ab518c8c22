// Shared adaptive-intersection machinery of the counting kernels (paper
// Section 3.4, plus the GraphChallenge-style adaptive merge/gallop split).
//
// Both the full (static) and the incremental kernel reduce to the same
// inner problem: given the sorted record array and its per-first-node
// region index, intersect two sorted regions by second endpoint.  This
// module owns everything that problem needs so the two kernels cannot
// diverge again:
//
//  * the DMA charge of a WRAM-buffered MRAM stream (`charge_stream`, the
//    discipline every phase shares),
//  * the sampled WRAM `RegionCache` lookup that keeps the per-query MRAM
//    probe chain at ~log2(stride) instead of log2(regions),
//  * the adaptive `intersect_regions` primitive: linear merge or block-
//    galloping binary search, selected per intersection by a cost model
//    (`IntersectPolicy::kAuto`) or forced by policy — the match set, and
//    therefore every count, is identical under any policy,
//  * strided chunk scheduling (`kIntersectChunkEdges`) so a hub's
//    contiguous run of expensive queries is spread round-robin over the
//    tasklets instead of landing on one,
//  * the `IntersectTally` diagnostics both kernels report through DpuMeta.
//
// Host execution (DESIGN.md, "Simulator execution vs. modeled cost"): the
// functions here read host copies of the bank arrays directly and charge
// the DMA bursts and instructions the modeled kernel issues, in closed form
// where the burst sequence is fixed by sizes alone.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/math_util.hpp"
#include "pim/config.hpp"
#include "pim/dpu.hpp"
#include "tc/layout.hpp"

namespace pimtc::tc {

// ---------------------------------------------------------------------------
// WRAM-buffered MRAM streams
// ---------------------------------------------------------------------------

/// Charges the DMA of `count` records of `record_bytes` streamed through a
/// `buffer`-record WRAM buffer: one burst per full buffer plus one for the
/// partial tail — the refills of a sequential reader, or the flushes of a
/// sequential writer.
inline void charge_stream(pim::Tasklet& t, std::uint64_t count,
                          std::uint64_t buffer, std::size_t record_bytes) {
  const std::uint64_t full = count / buffer;
  const std::uint64_t tail = count % buffer;
  if (full > 0) t.dma(buffer * record_bytes, full);
  if (tail > 0) t.dma(tail * record_bytes);
}

/// Records a buffered reader over [begin, end) has fetched once the record
/// at `next` is current (or the stream ran out at `next == end`): whole
/// refills up to and including that record, capped at the stream end.
[[nodiscard]] inline std::uint64_t stream_fetched(std::uint64_t begin,
                                                  std::uint64_t end,
                                                  std::uint64_t next,
                                                  std::uint64_t buffer) {
  const std::uint64_t len = end - begin;
  const std::uint64_t consumed = std::min(next - begin + 1, len);
  return std::min(ceil_div(consumed, buffer) * buffer, len);
}

// ---------------------------------------------------------------------------
// Work scheduling
// ---------------------------------------------------------------------------

/// Contiguous block [begin, end) of `n` items owned by worker `id` of `num`.
struct Block {
  std::uint64_t begin;
  std::uint64_t end;
};

[[nodiscard]] inline Block block_of(std::uint64_t n, std::uint32_t id,
                                    std::uint32_t num) noexcept {
  const std::uint64_t base = n / num;
  const std::uint64_t rem = n % num;
  const std::uint64_t begin = id * base + std::min<std::uint64_t>(id, rem);
  return {begin, begin + base + (id < rem ? 1 : 0)};
}

/// Strided chunk size (records) of the counting scans.  The scanned array
/// is sorted, so a hub's expensive queries are contiguous; round-robin
/// chunks of this size spread them over the tasklets where one contiguous
/// block per tasklet would hand a single tasklet every hub (real kernels
/// pull chunks from a shared work counter for the same reason).
inline constexpr std::uint64_t kIntersectChunkEdges = 16;

// ---------------------------------------------------------------------------
// Intersection policy + diagnostics
// ---------------------------------------------------------------------------

/// Strategy for intersecting two sorted adjacency regions.  The match set
/// is policy-independent; only the modeled work moves.
enum class IntersectPolicy : std::uint8_t {
  kAuto = 0,  ///< per-intersection cost model picks merge or gallop
  kMerge,     ///< always linear merge (the paper's Section 3.4 kernel)
  kGallop,    ///< always binary-search the small side into the large one
};

[[nodiscard]] const char* to_string(IntersectPolicy policy) noexcept;

/// Parses "auto" | "merge" | "gallop"; throws std::invalid_argument.
[[nodiscard]] IntersectPolicy intersect_policy_from_string(
    std::string_view name);

/// Per-kernel intersection diagnostics, accumulated per tasklet and summed
/// into DpuMeta at the end of a run.
struct IntersectTally {
  std::uint64_t merge_picks = 0;    ///< elements consumed by merge loops
  std::uint64_t gallop_probes = 0;  ///< MRAM bursts issued by block searches
  std::uint64_t merge_isects = 0;   ///< intersections resolved by merge
  std::uint64_t gallop_isects = 0;  ///< intersections resolved by gallop
  std::uint64_t chunks_claimed = 0; ///< strided scan chunks claimed

  IntersectTally& operator+=(const IntersectTally& o) noexcept {
    merge_picks += o.merge_picks;
    gallop_probes += o.gallop_probes;
    merge_isects += o.merge_isects;
    gallop_isects += o.gallop_isects;
    chunks_claimed += o.chunks_claimed;
    return *this;
  }
};

// ---------------------------------------------------------------------------
// Region lookup
// ---------------------------------------------------------------------------

/// A region [begin, end) of the sorted buffer (all records sharing one
/// first endpoint).
struct Region {
  std::uint64_t begin = ~0ull;
  std::uint64_t end = ~0ull;
  [[nodiscard]] bool found() const noexcept { return begin != ~0ull; }
  [[nodiscard]] std::uint64_t size() const noexcept { return end - begin; }
};

/// Shared WRAM cache of every k-th region-table entry.  A lookup binary
/// searches the cache with WRAM-speed instructions, leaving only ~log2(k)
/// MRAM probes inside the narrowed window — the real kernels keep exactly
/// such a sampled index resident to avoid DMA-bound searches.
///
/// The host never runs those searches.  Every charge of a lookup — the
/// cache search's iterations, the window, the in-window probes, each DMA
/// size — is a function of the key's rank in the region table alone, so
/// the cache keeps a host-only rank index over the table (a bucket
/// directory over the node ids below the remapped-hub band, which is
/// searched on its own) and derives the charges from the rank, hit or
/// miss.  One object serves every kernel run of a scratch set: build()
/// reuses its storage.
class RegionCache {
 public:
  static constexpr std::uint64_t kSlots = 2048;  // 16 KB of WRAM

  /// Loads one bank's region table (`table`, a host copy): charges the
  /// block-parallel boot stream over it that keeps every stride-th entry,
  /// and builds the host rank index.  Owns no WRAM: the cache models a
  /// statically allocated WRAM structure, budgeted in
  /// max_wram_buffer_edges().  With `enabled` false there is no cache and
  /// no boot stream; every lookup searches the whole table in MRAM — the
  /// pre-cache kernel behavior, kept as an ablation baseline.
  void build(pim::Dpu& dpu, std::uint32_t tasklets,
             std::uint32_t buffer_edges, std::span<const RegionEntry> table,
             bool enabled);

  /// Region bounds of `key` (end = next region's begin, or `n`), charging
  /// the lookup's DMA to `t` and its instructions to `instr`.  Not-found
  /// regions return found() == false.
  [[nodiscard]] Region find(pim::Tasklet& t, const pim::KernelCostModel& cost,
                            NodeId key, std::uint64_t n,
                            std::uint64_t& instr) const;

 private:
  /// Number of region nodes < key.
  [[nodiscard]] std::uint64_t rank(NodeId key) const noexcept;
  /// Iterations of the in-window MRAM binary search over a wide window of
  /// `len` entries that ends at position `pos`.
  [[nodiscard]] std::uint64_t window_probes(std::uint64_t len,
                                            std::uint64_t pos) const;

  std::vector<NodeId> nodes_;          ///< table nodes + a sentinel
  std::vector<std::uint32_t> begins_;  ///< table begins
  std::uint64_t num_regions_ = 0;
  std::uint64_t slots_ = 0;  ///< sampled entries (0: no cache)
  std::uint64_t stride_ = 1;
  std::vector<std::uint16_t> above_;  ///< above_[x] = ceil(x / stride)
  // Iteration counts of the cache search and of the in-window search over
  // a full window and over the last one (bisect depth per end position).
  std::vector<std::uint8_t> cache_depth_;
  std::vector<std::uint8_t> window_depth_;
  std::vector<std::uint8_t> last_depth_;
  // Rank directory over the ids below the remapped band: bucket b covers
  // ids [base_ + (b << shift_), base_ + ((b + 1) << shift_)).
  std::vector<std::uint32_t> bucket_;
  NodeId base_ = 0;
  std::uint32_t shift_ = 0;
  std::uint64_t num_buckets_ = 0;
  std::uint64_t band_lo_ = 0;  ///< rank of the remapped band's first id
};

// ---------------------------------------------------------------------------
// Adaptive intersection
// ---------------------------------------------------------------------------

/// True when this intersection should gallop: forced by policy, or (auto)
/// when binary-searching each small-side element into the large side
/// undercuts the linear merge by at least `gallop_margin`x under the block
/// search's cost model.
[[nodiscard]] bool choose_gallop(IntersectPolicy policy,
                                 std::uint32_t gallop_margin,
                                 std::uint64_t small_size,
                                 std::uint64_t large_size) noexcept;

/// Position of the first record in [r.begin, r.end) of `sorted` (a host
/// copy of the bank array) with .v >= w.  Each probe fetches an 8-edge
/// block, resolving three levels per DMA burst (the fixed setup cost
/// dominates tiny reads); a final linear resolve handles the <= 8 remaining
/// entries.  Probes are counted into `tally`, instructions into `instr`.
[[nodiscard]] std::uint64_t gallop_lower_bound(pim::Tasklet& t,
                                               const pim::KernelCostModel& cost,
                                               std::span<const Edge> sorted,
                                               const Region& r, NodeId w,
                                               IntersectTally& tally,
                                               std::uint64_t& instr);

/// Intersects regions `a` and `b` of the sorted array (host copy `sorted`)
/// by second endpoint, invoking `on_match(index_1, record_1, index_2,
/// record_2)` for every common .v (indices are absolute positions in the
/// sorted array; the two sides may arrive in either order).  Strategy per
/// `policy`:
///
///  * merge — stream both regions through `buffer`-edge WRAM buffers and
///    linearly co-advance (cost.count_merge_step per pick),
///  * gallop — stream the smaller region and binary-search each of its
///    elements into the larger one (hub-incident edges pair a tiny region
///    with a huge one, where a merge would walk the hub's full adjacency:
///    small * log(large) beats small + large).
///
/// The match set is identical under every policy, so counts built on top
/// are bit-identical; only the charged work differs.
template <typename OnMatch>
void intersect_regions(pim::Tasklet& t, const pim::KernelCostModel& cost,
                       IntersectPolicy policy, std::uint32_t gallop_margin,
                       std::span<const Edge> sorted, const Region& a,
                       const Region& b, std::uint64_t buffer,
                       IntersectTally& tally, std::uint64_t& instr,
                       OnMatch&& on_match) {
  const Region& small = a.size() <= b.size() ? a : b;
  const Region& large = a.size() <= b.size() ? b : a;
  // An empty side means no work under either strategy; skip it before the
  // tally so the merge/gallop split counts only intersections that ran.
  if (small.size() == 0) return;
  const Edge* s = sorted.data();

  if (choose_gallop(policy, gallop_margin, small.size(), large.size())) {
    ++tally.gallop_isects;
    charge_stream(t, small.size(), buffer, sizeof(Edge));
    std::uint64_t fetches = 0;  // one-record probes of the candidate match
    for (std::uint64_t i = small.begin; i < small.end; ++i) {
      const NodeId w = s[i].v;
      const std::uint64_t lo =
          gallop_lower_bound(t, cost, sorted, large, w, tally, instr);
      instr += cost.loop_overhead;
      if (lo >= large.end) continue;
      ++fetches;
      if (s[lo].v != w) continue;
      on_match(i, s[i], lo, s[lo]);
    }
    tally.gallop_probes += fetches;
    instr += fetches * cost.binary_search_step;
    t.dma(sizeof(Edge), fetches);
    return;
  }

  // Linear merge.  The buffered streams stop at the first exhausted side,
  // so each is charged only the refills up to its last fetched record.
  ++tally.merge_isects;
  std::uint64_t ia = a.begin;
  std::uint64_t ib = b.begin;
  std::uint64_t picks = 0;
  while (ia < a.end && ib < b.end) {
    ++picks;
    const NodeId va = s[ia].v;
    const NodeId vb = s[ib].v;
    if (va == vb) on_match(ia, s[ia], ib, s[ib]);
    // Advance the smaller side (both on a match) without a branch.
    ia += va <= vb ? 1 : 0;
    ib += vb <= va ? 1 : 0;
  }
  tally.merge_picks += picks;
  instr += picks * cost.count_merge_step;
  charge_stream(t, stream_fetched(a.begin, a.end, ia, buffer), buffer,
                sizeof(Edge));
  charge_stream(t, stream_fetched(b.begin, b.end, ib, buffer), buffer,
                sizeof(Edge));
}

}  // namespace pimtc::tc
