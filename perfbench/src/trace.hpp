// Spans the benchmark records around its own calls into the library.
//
// A span is one call into one layer (graph, engine, serve): its name,
// start, end, the span that was open on the same thread when it began
// (its parent), and the thread it ran on.  Spans live in memory and are
// written out once, as Chrome trace-event JSON, when the run ends.
//
// Every Span measures its duration whether or not the tracer records it:
// the benchmark's timings come from the same clock reads in traced and
// untraced runs, and only the recording differs.  That recording is the
// tracing overhead the benchmark reports.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = top-level (no enclosing span)
  std::string layer;
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer's epoch
  double end_s = 0.0;
  std::uint32_t tid = 0;  ///< small per-thread index, first-seen order

  [[nodiscard]] double duration_s() const noexcept { return end_s - start_s; }
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Spans that end while recording is on are kept.
  void set_recording(bool on) noexcept { recording_.store(on); }
  [[nodiscard]] bool recording() const noexcept { return recording_.load(); }

  [[nodiscard]] double now_s() const noexcept {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  /// Copy of every recorded span, in the order they ended.
  [[nodiscard]] std::vector<SpanRecord> records() const;

  /// Writes the recorded spans as Chrome trace-event JSON ("X" events,
  /// microsecond timestamps, id/parent in args), viewable in Perfetto or
  /// chrome://tracing.
  void write_chrome_json(const std::filesystem::path& path) const;

  /// RAII span.  Always times itself; records only if the tracer was
  /// recording when the span began.
  class Span {
   public:
    Span(Tracer& tracer, const char* layer, std::string name);
    ~Span() { end(); }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Ends the span (idempotent) and returns its duration in seconds.
    double end();

   private:
    Tracer& tracer_;
    const char* layer_;
    std::string name_;
    std::uint64_t id_ = 0;  ///< 0 = not recorded
    std::uint64_t parent_ = 0;
    double start_s_;
    double duration_s_ = -1.0;
  };

 private:
  friend class Span;
  void record(SpanRecord r);

  const Clock::time_point epoch_;
  std::atomic<bool> recording_{false};
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> records_;  // guarded by mutex_
};

/// Self time of one layer: the time its spans ran minus the part of each
/// span covered by its child spans.
struct LayerTime {
  std::string layer;
  double self_s = 0.0;
  double total_s = 0.0;
  std::size_t spans = 0;
};

/// Per-layer self times, largest first.
[[nodiscard]] std::vector<LayerTime> layer_self_times(
    const std::vector<SpanRecord>& spans);

/// Share of [start_s, end_s) covered by the union of the top-level spans.
[[nodiscard]] double top_level_coverage(const std::vector<SpanRecord>& spans,
                                        double start_s, double end_s);

/// The spans with one layer and name: how many, and their summed time.
struct SpanSum {
  double total_s = 0.0;
  std::size_t count = 0;

  [[nodiscard]] double mean_s() const noexcept {
    return count ? total_s / static_cast<double>(count) : 0.0;
  }
};
[[nodiscard]] SpanSum span_sum(const std::vector<SpanRecord>& spans,
                               const std::string& layer,
                               const std::string& name);

}  // namespace perfbench
