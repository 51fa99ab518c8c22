// Unified configuration for every triangle-counting backend.
//
// One struct configures any engine from the registry: the PIM pipeline
// knobs, the pim::PimSystemConfig machine model and the CPU backends'
// threading knobs.  Backends read the subset they understand: the CPU
// engines only look at `host_threads`, `seed` and their own dials; the PIM
// counter (tc::PimTriangleCounter) consumes everything.  validate() rejects
// configurations that are nonsense for *any* backend, so a config accepted
// once is accepted by every engine.
#pragma once

#include <cstdint>
#include <string>

#include "coloring/partition_plan.hpp"
#include "pim/config.hpp"
#include "tc/intersect.hpp"

namespace pimtc::engine {

struct EngineConfig {
  // ---- shared across backends ---------------------------------------------
  /// Host CPU threads (0 = hardware concurrency).
  std::uint32_t host_threads = 0;

  /// Seed for every randomized component (coloring hash, samplers).
  std::uint64_t seed = 42;

  /// Dynamic-graph mode: recount() processes only edges added since the
  /// previous count where the backend supports it (PIM persistent sorted
  /// arcs, incremental CPU adjacency); otherwise recount is from scratch.
  bool incremental = false;

  /// Deterministic fault injection + recovery policy (PIM backend), parsed
  /// by pim::FaultSpec::parse — e.g. "seed=3,launch-permanent=0.01,
  /// recovery=rematerialize".  Empty = injection off: every code path
  /// behaves and charges exactly as without the feature.  CLI:
  /// --inject-faults=SPEC.
  std::string fault_spec;

  // ---- approximation dials (PIM backend) ----------------------------------
  /// Uniform (DOULION) keep probability p; 1.0 = exact mode.
  double uniform_p = 1.0;

  /// Maximum edges stored per PIM core (the reservoir capacity M).
  /// 0 derives the largest capacity that fits the DRAM bank layout.
  std::uint64_t sample_capacity_edges = 0;

  // ---- PIM pipeline --------------------------------------------------------
  /// Number of vertex colors C; the run uses binom(C+2, 3) PIM cores.
  /// The engine API requires C >= 2 (C == 1 degenerates to a single core
  /// counting a monochromatic copy of the whole graph).  0 = auto: derive
  /// the largest C whose triplet count fits `pim.max_dpus`, so the machine
  /// is filled (2560 DPUs -> C = 23 -> 2300 cores, ~90% utilization).
  std::uint32_t num_colors = 8;

  /// Triplet->DPU placement policy (coloring/partition_plan.hpp): identity
  /// keeps the legacy triplet-index layout, kind_interleave packs equal-
  /// expected-load kinds into the same ranks, greedy_balance re-plans from
  /// observed loads.  Timing-only — the estimate is bit-identical.
  color::PlacementPolicy placement = color::PlacementPolicy::kIdentity;

  /// Runtime rebalancing: recount() re-plans placement from observed loads
  /// and migrates resident samples (modeled gather + scatter) when the
  /// projected scatter wire bytes shrink by >= rebalance_min_gain.
  bool rebalance_enabled = false;
  double rebalance_min_gain = 1.05;

  /// PIM threads per core; the paper evaluates with 16.
  std::uint32_t tasklets = 16;

  /// Misra-Gries high-degree remapping (paper Section 3.5).
  bool misra_gries_enabled = false;
  std::uint32_t mg_capacity = 1024;  ///< K: counters per host-thread summary
  std::uint32_t mg_top = 16;         ///< t: nodes remapped on the PIM cores

  /// Degree-ordered remap (requires misra_gries_enabled): remap the top
  /// min(mg_capacity, kMaxRemap) tracked nodes ordered by estimated degree
  /// instead of only the top mg_top hubs, so sorted-region sizes
  /// anti-correlate with degree and the adaptive intersection's gallop
  /// triggers on hub edges.  Estimate-invariant: any ordering is a node-id
  /// bijection (see DESIGN.md "Intersection strategy & degree ordering").
  bool degree_ordered_remap = false;

  /// Intersection strategy of the counting kernels: kAuto picks merge vs
  /// block-gallop per intersection; kMerge/kGallop force one.  Estimates
  /// are bit-identical under every policy — only modeled work moves.
  tc::IntersectPolicy intersect = tc::IntersectPolicy::kAuto;

  /// Auto-policy crossover margin: gallop when its modeled cost times this
  /// factor undercuts the linear merge.  Must be >= 1.
  std::uint32_t gallop_margin = 3;

  /// cpu-fast backend: DODG out-degree at which a source vertex switches
  /// from adaptive merge/gallop to the packed-bitmap intersection path.
  /// 0 disables the bitmap; otherwise must be >= 2 (sources with fewer
  /// than two out-neighbors close no triangles).  Count-invariant — the
  /// three strategies find the same matches.  Default 2 = bitmap-first: on
  /// a DODG every out-list is already the small side of its intersections,
  /// and the branchless membership probes beat the merge's serialized
  /// cursor chain at every out-degree measured (DESIGN.md "Fast exact CPU
  /// backend"); raise it (or set 0) to study the merge/gallop paths.
  std::uint32_t cpu_fast_hub_degree = 2;

  /// WRAM RegionCache for the kernels' region lookups; false degrades every
  /// lookup to the full-table MRAM binary search (ablation baseline).
  bool region_cache = true;

  /// Per-stream WRAM staging buffer, in edges, for the counting kernel.
  std::uint32_t wram_buffer_edges = 64;

  // ---- rank-aware ingestion (PIM backend) ----------------------------------
  /// Per-DPU host staging-buffer capacity in edges; a batch staging more
  /// than this for some DPU flushes in multiple bulk scatters (rounds).
  /// 0 = unbounded: exactly one rank-parallel scatter per batch.
  std::uint64_t staging_capacity_edges = 0;

  /// Double-buffered ingestion: overlap host partitioning/staging of the
  /// next batch (or round) with the modeled DPU receive of the previous
  /// one.  Timing-only; the estimate is bit-identical either way.
  bool pipelined_ingest = true;

  /// Machine model of the simulated UPMEM system.  `pim.dpus_per_rank`
  /// shapes the rank topology the transfer model pads over.
  pim::PimSystemConfig pim{};

  /// Instruction-cost table used by the simulated kernels.
  pim::KernelCostModel cost{};

  /// Throws std::invalid_argument describing the first violated invariant.
  /// make_engine() calls this before constructing any backend: every
  /// validate_pipeline() rule plus the two engine-API rules C >= 2 and
  /// pim.dpus_per_rank <= pim.max_dpus.
  void validate() const;

  /// The rules every backend relies on, shared by validate() and the PIM
  /// counter's constructor (which direct construction reaches without the
  /// registry).  Throws std::invalid_argument like validate(); returns the
  /// resolved C (num_colors, or the auto selection when it is 0).
  std::uint32_t validate_pipeline() const;
};

}  // namespace pimtc::engine
