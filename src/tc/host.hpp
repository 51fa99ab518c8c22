// Host-side orchestration of the PIM triangle counter — the "pim" engine.
//
// PimTriangleCounter implements engine::TriangleCountEngine directly: it is
// configured by engine::EngineConfig (the machine model under `pim`) and
// every recount() fills engine::CountReport, Misra-Gries heavy hitters
// included.  make_engine("pim", cfg) builds it; white-box tests and the
// ablation benches construct it directly for its introspection (system(),
// plan(), rebalance(), restore_bank(), ...).
//
// Pipeline per batch of COO edges (paper Sections 3.1-3.3), a flat
// two-pass partition:
//   1. pass 1: host threads stream their chunk of the batch — uniform
//      sampling (discard with prob. 1-p), Misra-Gries degree summaries —
//      and only count their records per triplet; an exclusive prefix over
//      threads gives each thread its first position in each triplet's
//      share (greedy_balance placement is decided here, from the totals),
//   2. pass 2 redraws the same sampler coins and writes every kept record
//      once, at its final position: straight into the triplet's bank
//      sample slots when the batch only appends to its reservoir (nothing
//      pending, no host mirrors, the batch fits), else into one flat
//      triplet-major host array,
//   3. host-array records go through the reservoir decisions into
//      persistent per-triplet staging images (sketch::ReservoirStaging):
//      appends coalesce to one contiguous run, replacements fold to their
//      final value,
//   4. each round flushes with ONE bulk rank-parallel scatter per batch
//      (or per staging-capacity round), padded per rank to the slowest DPU
//      as real dpu_push_xfer transfers are; the DPU-side receive applies
//      the image with bulk DMA instead of per-edge writes.  A directly
//      written triplet is charged, round by round, exactly what flushing
//      its records as one append run costs, so the model cannot tell the
//      two routes apart.

// Which physical DPU a triplet's image lands on is the PartitionPlan's
// decision (coloring/partition_plan.hpp): every estimator-visible quantity
// (reservoirs, seeds, corrections) is keyed by *triplet* index, so the
// estimate is bit-identical under any placement — placement only moves the
// modeled transfer padding and launch skew.  rebalance() re-plans from the
// observed per-triplet loads and migrates resident samples between banks
// with one modeled gather + scatter; with `rebalance_enabled` recount()
// does this automatically whenever the projected scatter wire bytes shrink
// by at least `rebalance_min_gain`.
//
// With pipelined ingestion enabled the modeled transfer + receive time of a
// flush is not charged immediately: it is held "in flight" and overlapped
// with the measured host time of the next partitioning/staging phase (the
// double-buffer shape of the paper's 32-thread host loop).  recount() is a
// sync point — the kernel depends on the resident sample, so any in-flight
// remainder is charged there in full.  This is timing-only: estimates are
// bit-identical with pipelining on or off.
//
// `recount()` then runs the counting kernel on every core, gathers the
// per-core counts and applies the statistical corrections (reservoir factor,
// monochromatic-triangle overcount, uniform-sampling factor).
//
// The class is stateful to support the dynamic-graph use case (Figure 7):
// add_edges() may be called repeatedly, and recount() reuses the resident
// samples — only new edges are transferred.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "common/thread_pool.hpp"
#include "coloring/partition_plan.hpp"
#include "coloring/partitioner.hpp"
#include "coloring/triplets.hpp"
#include "engine/engine.hpp"
#include "pim/system.hpp"
#include "sketch/misra_gries.hpp"
#include "sketch/reservoir.hpp"

namespace pimtc::tc {

class PimTriangleCounter final : public engine::TriangleCountEngine {
 public:
  /// Builds the pipeline `config` describes on the machine model
  /// `config.pim`.  Throws std::invalid_argument on a config that breaks
  /// EngineConfig::validate_pipeline().  config() reports the effective
  /// config: auto color selection (num_colors == 0) is resolved.
  explicit PimTriangleCounter(const engine::EngineConfig& config);

  /// Streams one batch of edges into the PIM cores (dynamic updates).
  /// Self loops are dropped; edges are expected deduplicated (see
  /// graph::preprocess).
  void add_edges(std::span<const Edge> batch) override;

  /// Streams one batch of a fully-dynamic (±) update stream.  Insertions
  /// behave exactly like add_edges (an all-insert batch takes that code
  /// path verbatim, so insert-only estimates are bit-identical); deletions
  /// run random pairing on each touched triplet's reservoir: a deletion
  /// that hits the resident sample evicts it (swap-filled from the top and
  /// staged as ordinary slot writes on the same rank-parallel scatter
  /// path), one that misses only adjusts the pairing counters, and either
  /// way later insertions compensate.  Deleting an edge that was never
  /// inserted is indistinguishable from one the reservoir discarded; the
  /// caller owns that contract (the exact cpu-incremental engine is the
  /// oracle for it).  Throws std::invalid_argument when the batch contains
  /// deletions and uniform_p < 1 — the keep coin of the original insertion
  /// is not reconstructible, so DOULION cannot compose with deletions.
  void apply(std::span<const EdgeUpdate> batch) override;

  /// Runs the counting kernel over the resident samples and returns the
  /// corrected estimate.  Idempotent: recounting without new edges returns
  /// the same result.
  engine::CountReport recount() override;

  [[nodiscard]] engine::EngineCapabilities capabilities() const override;
  [[nodiscard]] const char* name() const noexcept override { return "pim"; }

  /// Re-plans placement from the observed per-triplet loads (LPT: heaviest
  /// first, chunked into ranks) and migrates resident samples to their new
  /// banks via one modeled gather + scatter.  Returns false when the plan
  /// is already in that order.  Migration invalidates the persistent sorted
  /// arcs (the next recount is a full pass); the estimate is unchanged.
  bool rebalance();

  /// Installs an explicit triplet->DPU placement (validated bijection) and
  /// migrates resident samples accordingly.  rebalance() is this applied to
  /// the LPT plan; tests use it to assert placement invariance under
  /// arbitrary permutations.
  bool migrate_to(std::span<const std::uint32_t> dpu_of_triplet);

  // ---- fault recovery ------------------------------------------------------
  /// Materializes the host-side sample mirrors now (one modeled gather) —
  /// the precondition of restore_bank().  Sessions with deletions or a
  /// rematerialize fault policy already keep them current.
  void ensure_mirrors() { materialize_mirrors(); }

  /// Re-scatters triplet `triplet`'s host-known sample plus a fresh control
  /// block onto its current bank — the primitive dead-bank re-materialization
  /// and bit-flip scrubbing are built on.  The bank's kernel-owned sorted
  /// state is rebuilt on the next recount; the estimate is bit-identical to
  /// an uninterrupted run.  Requires mirrors (ensure_mirrors()).
  void restore_bank(std::uint32_t triplet);

  /// True when the triplet's contribution was lost to an unrecoverable
  /// fault (degraded estimates reweight around it).
  [[nodiscard]] bool triplet_lost(std::uint32_t triplet) const noexcept {
    return triplet_lost_[triplet] != 0;
  }

  /// Zeroes the accumulated phase times and transfer diagnostics.  An
  /// in-flight pipelined flush belongs to the pre-reset window, so it is
  /// settled first and cannot leak into the next measurement window.
  void reset_timers() override {
    drain_in_flight(0.0);
    system_->reset_times();
  }

  // ---- introspection -------------------------------------------------------
  [[nodiscard]] pim::PimSystem& system() noexcept { return *system_; }
  [[nodiscard]] const pim::PimSystem& system() const noexcept {
    return *system_;
  }
  [[nodiscard]] const color::PartitionPlan& plan() const noexcept {
    return plan_;
  }
  [[nodiscard]] const color::TripletTable& triplets() const noexcept {
    return plan_.table();
  }
  [[nodiscard]] std::uint64_t sample_capacity() const noexcept {
    return capacity_;
  }
  [[nodiscard]] const sketch::MisraGries& heavy_hitters() const noexcept {
    return global_mg_;
  }
  /// Edges ever offered to each PIM core, indexed by *triplet* (the t_d of
  /// the estimator; map through plan().dpu_of() for the physical core).
  [[nodiscard]] std::vector<std::uint64_t> per_dpu_edges_seen() const;
  /// Host threads in the partitioning/staging pool.
  [[nodiscard]] std::uint32_t host_threads() const noexcept {
    return static_cast<std::uint32_t>(pool().size());
  }
  /// Sample migrations performed so far (rebalance / migrate_to).
  [[nodiscard]] std::uint32_t rebalances() const noexcept {
    return rebalances_;
  }

 private:
  /// Exclusive prefix over threads of pass 1's counts: fills
  /// batch_totals_, makes route_positions_ pass 2's write positions, and
  /// applies greedy_balance's deferred placement on the first batch with
  /// data.  Returns the largest triplet total.
  std::uint64_t prefix_routes();

  /// Decides, per triplet, whether the insert batch goes straight into the
  /// bank (direct_) or into routed_edges_, and sets route_targets_.  A
  /// direct triplet's reservoir registers its appends here.
  void target_insert_routes();

  /// Computes reservoir decisions for the routed batch, flushes the
  /// staging images via bulk scatter(s) and charges / pipelines the modeled
  /// device time.  `host_window_s` is measured host time preceding the
  /// first flush (the overlap window for any in-flight device work).
  void insert_into_samples(std::uint64_t max_per_triplet,
                           double host_window_s);

  /// The fully-dynamic analogue: replays each triplet's ± update list in
  /// stream order against its reservoir policy and sample mirror, then
  /// flushes the touched slots (final values, runs of consecutive slots)
  /// in rank-parallel scatters — staging_capacity_edges bounds the
  /// records per round exactly as it bounds the insert path's images.
  /// Marks triplets whose resident sample lost an edge as dirty: their
  /// persistent sorted arcs are stale.
  void apply_updates_to_samples(std::uint64_t max_per_triplet,
                                double host_window_s);

  /// Builds the per-triplet sample mirrors from the resident bank contents
  /// via one rank-parallel gather (charged to the ingest phase).  Insert-
  /// only sessions never pay for mirror maintenance; the first deletion
  /// materializes the occupancy map once, and both ingest paths keep it
  /// current afterwards.
  void materialize_mirrors();

  /// Settles one flush round's modeled device time: rank-parallel scatter
  /// of flush_bytes_ plus the DPU receive cycles accumulated since
  /// cycles_before_, pipelined (held in flight) or charged per config.
  /// `host_window_s` is the host work that overlaps the previous round's
  /// in-flight device time.
  void settle_flush_round(double host_window_s);

  /// Charges in-flight device time from the previous flush, hiding up to
  /// `host_overlap_s` of it under host work (pipelined ingest).
  void drain_in_flight(double host_overlap_s);

  /// set_placement + sample migration; returns false when nothing changed.
  bool apply_placement(std::span<const std::uint32_t> dpu_of_triplet);

  // ---- fault recovery internals -------------------------------------------
  /// recount()'s launch loop under an armed fault plan: launch the assigned
  /// live banks, retry transients with capped exponential backoff (modeled
  /// time charged to the count phase), and route dead banks through
  /// recover_unusable_bank() until every surviving bank has run.
  void run_launch_with_recovery(const std::function<void(pim::Dpu&)>& kernel,
                                std::vector<std::uint8_t>& full_pass);

  /// Recovery decision for triplet `t` whose bank is unusable: under the
  /// rematerialize policy (with mirrors) patch the placement onto the first
  /// healthy spare bank, restore the sample there and return the new bank;
  /// otherwise mark the triplet lost and return kNoTriplet.
  std::uint32_t recover_unusable_bank(std::uint32_t t);

  /// Pushes triplet `t`'s mirrored sample + a fresh control block (and the
  /// frozen remap table) onto `bank`; returns the modeled seconds charged.
  double materialize_bank(std::uint32_t t, std::uint32_t bank);

  /// Draws this recount's MRAM bit flips, applies them to the resident
  /// samples, and — when checksums are on — charges the scrub scan and
  /// restores flipped samples from the mirrors (or drops the triplet when
  /// no mirror exists).  Without checksums the corruption rides silently
  /// into the kernel.
  void inject_and_scrub_bitflips();

  [[nodiscard]] bool any_reservoir_overflowed() const noexcept;

  /// The partitioning/staging pool: dedicated when config.host_threads is
  /// pinned, the shared process-global pool otherwise — so N concurrent
  /// counters (the serving layer's sessions) do not stack N hardware-wide
  /// pools onto one machine.
  [[nodiscard]] ThreadPool& pool() const noexcept {
    return pool_ ? *pool_ : ThreadPool::global();
  }

  std::unique_ptr<ThreadPool> pool_;
  color::PartitionPlan plan_;
  ColorHash hash_;
  std::unique_ptr<pim::PimSystem> system_;
  /// Reservoir state per *triplet*; the plan maps triplets to banks.
  std::vector<sketch::ReservoirPolicy> reservoirs_;
  /// Host-side mirror of each triplet's resident sample (slot <-> edge).
  /// Lazily materialized by the first deletion (materialize_mirrors);
  /// afterwards maintained from the host's own staged decisions, so
  /// deletions resolve membership and eviction slots with no device reads.
  std::vector<sketch::SampleMirror<Edge>> mirrors_;
  bool mirrors_valid_ = false;
  sketch::MisraGries global_mg_;
  std::uint64_t capacity_ = 0;

  // ---- persistent ingestion state (reused across batches) -----------------
  /// The flat two-pass partition of the current batch — the paper's "one
  /// edge array per host thread per PIM core" (Section 3.1) kept as counts
  /// only.  Pass 1 counts thread t's records for triplet d into
  /// route_positions_[t * triplets + d]; the exclusive prefix over threads
  /// turns each count into t's first position in d's share, and pass 2
  /// advances it as it writes.
  std::vector<std::uint64_t> route_positions_;
  /// Per-triplet records in the current batch, and the start of the
  /// triplet's slice of the flat host array (routed_edges_ or
  /// routed_updates_).
  std::vector<std::uint64_t> batch_totals_;
  std::vector<std::uint64_t> batch_offsets_;
  /// Per-triplet: the current insert batch only appends to the reservoir,
  /// so pass 2 writes it straight into the bank (no host copy).
  std::vector<std::uint8_t> direct_;
  /// Per-triplet destination of pass 2's insert records: the triplet's
  /// first free sample slot in its bank when direct_, else its slice of
  /// routed_edges_.  Valid for the current batch only.
  std::vector<Edge*> route_targets_;
  /// Triplet-major insert records of the triplets that are not direct,
  /// consumed by the staging rounds.
  std::vector<Edge> routed_edges_;
  /// Triplet-major records of a ± batch (deletions resolve against the
  /// host mirrors, so no triplet is direct).
  std::vector<EdgeUpdate> routed_updates_;
  /// Per-triplet scratch: slots touched by the current update batch.
  std::vector<std::vector<std::uint64_t>> touched_slots_;
  /// Per-triplet "resident sample lost an edge since the last count" flag;
  /// a dirty triplet's persistent sorted arcs are invalid, so the next
  /// recount runs the full kernel on that core only (the others keep the
  /// incremental path).
  std::vector<std::uint8_t> triplet_dirty_;
  /// Per-triplet staging images (reservoir decisions materialized host-side).
  std::vector<sketch::ReservoirStaging<Edge>> staging_;
  /// Per-DPU staged payload bytes of the current round's scatter.
  std::vector<std::uint64_t> flush_bytes_;
  /// Per-DPU cycle snapshot at the start of a flush round (reused).
  std::vector<double> cycles_before_;
  /// Modeled scatter+receive seconds of the last flush, not yet charged
  /// (pipelined ingest keeps it in flight until host work overlaps it).
  double in_flight_device_s_ = 0.0;

  std::uint64_t edges_streamed_ = 0;
  std::uint64_t edges_kept_ = 0;
  std::uint64_t edges_replicated_ = 0;
  std::uint64_t edges_deleted_ = 0;  ///< delete updates applied (stream space)
  std::uint64_t batch_counter_ = 0;
  std::uint32_t rebalances_ = 0;
  /// greedy_balance: placement is re-planned once, from the first non-empty
  /// batch's observed loads (free: nothing is resident yet), then frozen
  /// until an explicit/automatic rebalance.
  bool placement_observed_ = false;

  /// Dynamic mode: true once every core holds a valid persistent sorted arc
  /// array (set by the first full count with persistence).
  bool sorted_valid_ = false;
  /// Remap table in effect; frozen at the first count in incremental mode.
  std::vector<NodeId> frozen_remap_;

  // ---- fault injection state ----------------------------------------------
  /// Armed fault plan (shared with the PimSystem); null = injection off and
  /// every path above behaves byte-identically to a build without faults.
  std::shared_ptr<const pim::FaultPlan> fault_plan_;
  /// Per-triplet "contribution lost to an unrecoverable fault" flags.
  /// Persistent: a lost triplet stays lost for the rest of the session.
  std::vector<std::uint8_t> triplet_lost_;
  /// Recount index feeding the deterministic bit-flip draws.
  std::uint64_t fault_epoch_ = 0;
  /// Host-side recovery tallies accumulated across recounts (launch
  /// retries, rematerializations, scrubs); the PimSystem keeps the
  /// transfer/launch-level counters.
  pim::FaultStats fault_tally_;
};

}  // namespace pimtc::tc
