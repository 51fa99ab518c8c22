// Deterministic fault injection for the simulated PIM runtime.
//
// Real UPMEM deployments see DPU launch failures (transient and permanent),
// whole-rank outages, and corrupted dpu_push_xfer transfers; TCIM-style
// in-MRAM residency additionally motivates modeling bit errors on the
// resident samples.  The simulator models a perfect machine by default —
// this header is the switch that makes it imperfect *reproducibly*:
//
//   FaultSpec   the parsed `--inject-faults=` / EngineConfig.fault_spec
//               string: per-event rates, the fault-stream seed, the
//               recovery policy and its knobs,
//   FaultPlan   a stateless oracle over the spec: every event is a pure
//               function of (seed, event kind, step index, unit index)
//               hashed through mix64, so two runs with the same spec see
//               byte-identical fault sequences regardless of thread
//               interleaving — and a retry (a later step) gets a fresh,
//               equally deterministic draw.
//
// "Steps" advance at the serial points of the runtime (each bulk transfer
// and each kernel launch bumps PimSystem's step counter; each recount bumps
// the counter-level epoch used for MRAM bit flips), which is what makes the
// draws reproducible.  FaultStats is the recovery ledger surfaced through
// CountReport; FaultCounters is the PimSystem-level subset.
//
// See DESIGN.md "Fault model & recovery".
#pragma once

#include <cstdint>
#include <string>

#include "common/hash.hpp"

namespace pimtc::pim {

struct FaultSpec {
  /// How the counting host reacts to an unusable bank:
  ///   kRetry          transient faults are retried with backoff; a dead
  ///                   bank drops its triplet (degraded estimate),
  ///   kRematerialize  retry, then restore the dead bank's sample from the
  ///                   host mirror onto a spare DPU (full fidelity); only
  ///                   spare exhaustion degrades,
  ///   kDegrade        never retry or migrate: any fault drops the triplet.
  enum class Recovery : std::uint8_t { kRetry, kRematerialize, kDegrade };

  /// Seed of the fault stream — independent of the estimator seed, so the
  /// same workload can be replayed under many fault sequences.
  std::uint64_t seed = 1;

  /// Per-launch, per-DPU probability the launch fails but the DPU survives.
  double launch_transient = 0.0;
  /// Per-launch, per-DPU probability the DPU dies permanently.
  double launch_permanent = 0.0;
  /// Per-launch, per-rank probability the whole rank dies permanently.
  double rank_outage = 0.0;
  /// Per-transfer, per-DPU probability a bulk scatter/gather span is hit by
  /// a single-bit wire corruption.
  double transfer_corrupt = 0.0;
  /// Per-recount, per-triplet probability of one bit flip in the resident
  /// MRAM sample.
  double mram_bitflip = 0.0;

  /// XXH64 payload checksums on bulk transfers + resident-sample scrubbing:
  /// when on, corruption is always detected (and repaired when possible) at
  /// a modeled cost; when off, corruption silently reaches the estimator.
  bool checksums = true;

  Recovery recovery = Recovery::kRematerialize;
  /// Capped exponential-backoff retries for transient launch faults.
  std::uint32_t max_retries = 3;
  /// Spare DPUs allocated beyond the triplet count for re-materialization
  /// (clamped to the machine's max_dpus; kRematerialize only).
  std::uint32_t spare_banks = 16;

  /// Step window: events only fire at step/epoch indices in
  /// [from_step, until_step).
  std::uint64_t from_step = 0;
  std::uint64_t until_step = ~0ull;

  /// First retry backoff (doubles per attempt), charged to the count phase.
  double backoff_base_s = 50e-6;
  /// Modeled checksum compute+verify rate for the detection cost.
  double checksum_gb_s = 10.0;

  /// Parses "key=value,key=value,..." (keys: seed, launch-transient,
  /// launch-permanent, rank-outage, corrupt, bitflip, checksum=on|off,
  /// recovery=retry|rematerialize|degrade, max-retries, spares, from-step,
  /// until-step, backoff-us, checksum-gbps).  Throws std::invalid_argument
  /// naming the offending key.  An empty string is "injection off" and is
  /// rejected here — callers gate on emptiness before parsing.
  [[nodiscard]] static FaultSpec parse(const std::string& spec);

  [[nodiscard]] const char* recovery_name() const noexcept;
};

/// PimSystem-level fault/detection tallies (cumulative since construction).
struct FaultCounters {
  std::uint64_t launch_transients = 0;
  std::uint64_t dead_dpus = 0;
  std::uint64_t rank_outages = 0;
  std::uint64_t transfer_corruptions = 0;
  std::uint64_t transfer_retries = 0;
  std::uint64_t checksum_bytes = 0;
  double detection_s = 0.0;
};

/// The recovery ledger of one counting session, surfaced through
/// CountReport::faults (CLI text + JSON, serve stats).
struct FaultStats {
  bool injected = false;   ///< a fault plan was active
  bool degraded = false;   ///< triplets were lost; the estimate is reweighted
  double coverage = 1.0;   ///< surviving-triplet weight fraction (kind-weighted)
  double error_bound = 0.0;  ///< widened relative error bound (degraded only)

  std::uint64_t launch_transients = 0;
  std::uint64_t launch_retries = 0;  ///< bank launches retried after backoff
  std::uint64_t dead_dpus = 0;
  std::uint64_t rank_outages = 0;
  std::uint64_t rematerializations = 0;  ///< dead banks restored from mirror
  std::uint64_t migrations = 0;          ///< placement patches onto spares
  std::uint64_t dropped_triplets = 0;    ///< lost contributions (degraded)
  std::uint64_t transfer_corruptions = 0;
  std::uint64_t transfer_retries = 0;
  std::uint64_t mram_bitflips = 0;
  std::uint64_t sample_restores = 0;  ///< bit-flipped samples scrubbed in place
  std::uint64_t checksum_bytes = 0;
  double detection_s = 0.0;  ///< modeled checksum/scrub seconds
  double recovery_s = 0.0;   ///< modeled backoff + restore-transfer seconds
};

/// Stateless deterministic fault oracle.  Every query hashes
/// (seed, kind, step, unit) through mix64 and compares the unit draw to the
/// configured rate; no internal state, so call order cannot perturb it.
class FaultPlan {
 public:
  explicit FaultPlan(FaultSpec spec) noexcept : spec_(spec) {}

  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }

  [[nodiscard]] bool launch_transient(std::uint64_t step,
                                      std::uint32_t dpu) const noexcept {
    return fire(kLaunchTransient, step, dpu, spec_.launch_transient);
  }
  [[nodiscard]] bool launch_permanent(std::uint64_t step,
                                      std::uint32_t dpu) const noexcept {
    return fire(kLaunchPermanent, step, dpu, spec_.launch_permanent);
  }
  [[nodiscard]] bool rank_outage(std::uint64_t step,
                                 std::uint32_t rank) const noexcept {
    return fire(kRankOutage, step, rank, spec_.rank_outage);
  }
  [[nodiscard]] bool transfer_corrupt(std::uint64_t step,
                                      std::uint32_t dpu) const noexcept {
    return fire(kTransferCorrupt, step, dpu, spec_.transfer_corrupt);
  }
  /// Per-recount-epoch resident-sample bit flip for triplet `unit`.
  [[nodiscard]] bool mram_bitflip(std::uint64_t epoch,
                                  std::uint32_t unit) const noexcept {
    return fire(kMramBitflip, epoch, unit, spec_.mram_bitflip);
  }
  /// Which bit of a `span_bits`-bit payload the corruption flips (the same
  /// (step, unit) always flips the same bit).
  [[nodiscard]] std::uint64_t corrupt_bit(std::uint64_t step,
                                          std::uint32_t unit,
                                          std::uint64_t span_bits) const noexcept {
    if (span_bits == 0) return 0;
    return draw(kCorruptBit, step, unit) % span_bits;
  }

 private:
  enum Kind : std::uint64_t {
    kLaunchTransient = 1,
    kLaunchPermanent = 2,
    kRankOutage = 3,
    kTransferCorrupt = 4,
    kMramBitflip = 5,
    kCorruptBit = 6,
  };

  [[nodiscard]] std::uint64_t draw(std::uint64_t kind, std::uint64_t step,
                                   std::uint64_t unit) const noexcept {
    std::uint64_t h = spec_.seed ^ (kind * 0x9e3779b97f4a7c15ull);
    h = mix64(h ^ step);
    h = mix64(h ^ (unit * 0xbf58476d1ce4e5b9ull));
    return mix64(h);
  }
  [[nodiscard]] bool fire(std::uint64_t kind, std::uint64_t step,
                          std::uint64_t unit, double rate) const noexcept {
    if (rate <= 0.0) return false;
    if (step < spec_.from_step || step >= spec_.until_step) return false;
    // Top 53 bits -> a uniform draw in [0, 1).
    const double u =
        static_cast<double>(draw(kind, step, unit) >> 11) * 0x1.0p-53;
    return u < rate;
  }

  FaultSpec spec_;
};

}  // namespace pimtc::pim
