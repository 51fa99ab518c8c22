// Wall-clock of one triangle-counting run, split into the paper's phases
// (Section 4.1).
//
// Lives in common/ because two layers share it from opposite sides: the PIM
// runtime (pim::PimSystem) charges modeled time into it, and the engine
// layer reports it (engine::CountReport) for every backend.
#pragma once

namespace pimtc {

/// For the PIM backend the first three fields are *simulated* seconds from
/// the timing model (device cycles + modeled transfers) and `host_s` is
/// measured local host time (batch building, Misra-Gries, ...) — kept
/// separate so projection to other host hardware stays possible (see
/// bench/fig7).  For the CPU backends everything is measured locally
/// (`ingest_s` = structure build / conversion, `count_s` = counting).
/// Engines report times accumulated since construction or the last
/// reset_timers().
struct PhaseTimes {
  double setup_s = 0.0;   ///< allocation + program load (PIM only)
  double ingest_s = 0.0;  ///< sample creation / CSR conversion / batch merge
  double count_s = 0.0;   ///< the counting kernel itself
  double host_s = 0.0;    ///< measured host-CPU orchestration time

  [[nodiscard]] double total_s() const noexcept {
    return setup_s + ingest_s + count_s + host_s;
  }

  /// The modeled phases alone (setup + ingest + count).  For the PIM
  /// backend this is one clock — simulated device seconds — where total_s()
  /// adds the measured host time to it.
  [[nodiscard]] double modeled_s() const noexcept {
    return setup_s + ingest_s + count_s;
  }

  PhaseTimes& operator+=(const PhaseTimes& other) noexcept {
    setup_s += other.setup_s;
    ingest_s += other.ingest_s;
    count_s += other.count_s;
    host_s += other.host_s;
    return *this;
  }
};

}  // namespace pimtc
