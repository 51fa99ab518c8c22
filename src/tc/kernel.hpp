// The triangle-counting DPU kernels (paper Sections 3.4, 3.5 and the
// dynamic-graph mode of Section 4.6).
//
// Both kernels run functionally on one simulated DPU while charging the
// UPMEM cost model.  Inputs/outputs travel through the DpuMeta block
// (layout.hpp); the raw sample is never modified.
//
// Full kernel (static counting, also the first pass of dynamic mode):
//   1. remap+copy — copy the sample into scratch A, translating the
//      high-degree node ids (Misra-Gries remap, degree-ordered) to ids
//      above every real id,
//   2. sort       — WRAM chunk sort + MRAM ping-pong merge passes,
//   3. persist    — optionally copy the sorted data into S* (dynamic mode),
//   4. index      — build the per-first-node region index,
//   5. count      — edge iterator over strided chunks: for every edge
//      (u,v), look up both regions through the WRAM RegionCache and run the
//      adaptive intersection (tc/intersect.hpp) of the remainder of u's
//      region with v's — linear merge or block-galloping binary search per
//      the configured IntersectPolicy.
//
// Incremental kernel (dynamic updates; requires a valid S*):
//   1. remap+copy+sort the new batch (sample[sorted_size..sample_size)),
//   2. merge S* with the sorted batch in one streaming pass, marking batch
//      entries in the new-flags array,
//   3. rebuild the region index,
//   4. for every new edge e, merge the *full* regions of its endpoints and
//      count a matching triangle iff each of the other two edges is either
//      old or a new edge lexicographically smaller than e — every new
//      triangle is counted exactly once, at its largest new edge,
//   5. clear the flags; add the delta to the cumulative count.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "pim/config.hpp"
#include "pim/dpu.hpp"
#include "tc/intersect.hpp"
#include "tc/layout.hpp"

namespace pimtc::tc {

struct KernelParams {
  std::uint32_t tasklets = 16;
  std::uint32_t buffer_edges = 64;  ///< WRAM staging granularity per stream
  /// Intersection strategy of the counting phases; counts are bit-identical
  /// under every policy (tc/intersect.hpp).
  IntersectPolicy intersect = IntersectPolicy::kAuto;
  /// Auto-policy crossover margin: gallop when its modeled cost times this
  /// factor undercuts the linear merge.  Must be >= 1.
  std::uint32_t gallop_margin = 3;
  /// WRAM RegionCache for region lookups; false degrades every lookup to
  /// the full-table MRAM binary search (ablation baseline — the pre-cache
  /// kernel behavior).
  bool region_cache = true;
  pim::KernelCostModel cost{};
};

/// Largest `wram_buffer_edges` for which the worst-case simultaneous WRAM
/// allocation (five stream buffers per tasklet plus the static remap hash
/// table and sampled region cache) fits the scratchpad — the bound a real
/// kernel is sized against at build time.  Configs above it are rejected at
/// validation instead of silently clamped.
[[nodiscard]] std::uint32_t max_wram_buffer_edges(
    const pim::PimSystemConfig& config, std::uint32_t tasklets) noexcept;

/// Host copies of one bank's arrays that a kernel's functional execution
/// works on (defined in kernel.cpp).
struct KernelScratch;

/// Host memory the kernels reuse from bank to bank.  Each kernel call takes
/// one scratch set out of the pool and puts it back when it returns, so a
/// pool holds at most as many sets as kernels ran at once (one per launch
/// worker), each sized for the largest bank it ran.  Everything is freed
/// with the pool: a pool scoped to one launch keeps nothing resident after
/// it.  Thread-safe.
class KernelScratchPool {
 public:
  KernelScratchPool();
  ~KernelScratchPool();
  KernelScratchPool(const KernelScratchPool&) = delete;
  KernelScratchPool& operator=(const KernelScratchPool&) = delete;

  /// A free scratch set, or a new one when every set is in use.
  [[nodiscard]] std::unique_ptr<KernelScratch> acquire() PIMTC_EXCLUDES(mu_);
  /// Returns a set taken by acquire().
  void release(std::unique_ptr<KernelScratch> scratch) noexcept
      PIMTC_EXCLUDES(mu_);

 private:
  Mutex mu_;
  std::vector<std::unique_ptr<KernelScratch>> free_ PIMTC_GUARDED_BY(mu_);
  std::size_t created_ PIMTC_GUARDED_BY(mu_) = 0;
};

/// Executes the full kernel.  Reads DpuMeta at offset 0 and writes back
/// `triangle_count` (total over the whole sample) plus `num_regions`; when
/// DpuMeta::kFlagPersistSorted is set, also persists S* and `sorted_size`.
/// Host scratch comes from `scratch`, or from a pool of its own.
void run_count_kernel(pim::Dpu& dpu, const KernelParams& params,
                      KernelScratchPool& scratch);
void run_count_kernel(pim::Dpu& dpu, const KernelParams& params);

/// Executes the incremental kernel over the new edges
/// sample[sorted_size..sample_size).  Requires kFlagSortedValid (i.e. a
/// prior full run with persistence); adds the new-triangle delta to
/// `triangle_count` and advances `sorted_size`.
void run_incremental_kernel(pim::Dpu& dpu, const KernelParams& params,
                            KernelScratchPool& scratch);
void run_incremental_kernel(pim::Dpu& dpu, const KernelParams& params);

}  // namespace pimtc::tc
