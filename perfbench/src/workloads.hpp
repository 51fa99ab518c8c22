// The benchmark's three workloads, the inputs they generate, and the
// helpers they share.  NOTES.md says why each workload exists and which
// layers it loads.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "engine/config.hpp"
#include "engine/report.hpp"
#include "graph/coo.hpp"
#include "metrics.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Inputs written at set-up and the trace file go here.
  std::filesystem::path work_dir;
};

void run_static_file(const Options& opt, Tracer& tracer, RunResult& out);
void run_stream_churn(const Options& opt, Tracer& tracer, RunResult& out);
void run_serve_openloop(const Options& opt, Tracer& tracer, RunResult& out);

// ---- inputs, shaped like `pimtc generate --kind=...` ----------------------

/// Barabasi-Albert body plus three hubs; `body_edges` * 1.15 edges total.
[[nodiscard]] pimtc::graph::EdgeList ba_hubs(pimtc::EdgeCount body_edges,
                                             std::uint64_t seed);

/// Planted-partition communities of 64 nodes (the `pimtc serve` default).
[[nodiscard]] pimtc::graph::EdgeList community(pimtc::EdgeCount edges,
                                               std::uint64_t seed);

/// Deletions of a seeded random `frac` of `g`'s edges.
[[nodiscard]] std::vector<pimtc::EdgeUpdate> churn_deletes(
    const pimtc::graph::EdgeList& g, double frac, std::uint64_t seed);

/// setup_s of a workload that constructs cpu-fast and pim engines: the
/// median over `reps` of make_engine for both, under `config_for`.
[[nodiscard]] double engines_setup_s(
    Tracer& tracer, int reps,
    const std::function<pimtc::engine::EngineConfig(const std::string&)>&
        config_for);

// ---- the three clocks of the pim backend -----------------------------------

/// Host seconds and modeled (simulated UPMEM) seconds of pim calls, kept
/// apart.  `host_s` is the engine's measured orchestration time,
/// `sim_overhead_s` the rest of the calls' wall time (the simulator
/// emulating the device), and the modeled phases are device seconds the
/// timing model charges.  Host and modeled seconds are never added.
struct PimClocks {
  double host_s = 0.0;
  double sim_overhead_s = 0.0;
  double modeled_setup_s = 0.0;
  double modeled_ingest_s = 0.0;
  double modeled_count_s = 0.0;

  [[nodiscard]] double modeled_s() const noexcept {
    return modeled_setup_s + modeled_ingest_s + modeled_count_s;
  }
};

/// Splits a pim report, whose times accumulate over the calls that took
/// `calls_wall_s` of host wall time, into the three clocks.
[[nodiscard]] PimClocks split_clocks(const pimtc::engine::CountReport& r,
                                     double calls_wall_s);

/// The per-layer counters a pim report carries (transfers, kernel,
/// coloring, sketch) and its three clocks, as metrics.
void set_pim_layer_metrics(RunResult& out,
                           const pimtc::engine::CountReport& r,
                           const PimClocks& clocks);

/// [start, end) of one traced iteration, in tracer seconds.
using Window = std::pair<double, double>;

/// Wall times of a run's iterations.
struct Iterations {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<Window> traced;
};

/// Calls `iteration(traced)` while the next call would still end within
/// `opt.seconds` (at least once).  With --trace 1 the calls alternate
/// untraced and traced, ending on a traced one, and spans are recorded
/// during the traced calls only.
[[nodiscard]] Iterations run_iterations(
    const Options& opt, Tracer& tracer,
    const std::function<void(bool traced)>& iteration);

/// Prints per-layer self time, per-span totals and the share of the traced
/// iterations' wall that top-level spans cover, and writes the Chrome trace
/// file.
void report_trace(const Options& opt, const Tracer& tracer,
                  const std::vector<Window>& traced, RunResult& out);

/// Median of the traced minus median of the untraced iteration walls, as a
/// share of the untraced median.
[[nodiscard]] double tracing_overhead(const std::vector<double>& traced,
                                      const std::vector<double>& untraced);

}  // namespace perfbench
