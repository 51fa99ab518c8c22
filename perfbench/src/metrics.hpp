// What one benchmark run reports, and the statistics it reports them with.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Outcome of one run: the correctness verdict, how many operations were
/// attempted and how many failed, the metrics measured, and text lines
/// printed above the final JSON line.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> lines;

  void set(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and records why.
  void fail_check(const std::string& what);
  void note(const std::string& line) { lines.push_back(line); }
  /// A metric the run measures but its mode does not emit, printed as a
  /// "name = value unit" line.
  void note_metric(const std::string& name, double value,
                   const std::string& unit);

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  [[nodiscard]] std::string to_json() const;
};

[[nodiscard]] double median(std::vector<double> v);

/// A tail percentile chosen by the benchmark's rule: the highest of
/// p99.9 / p99 / p95 / p90 / p50 that has at least `min_beyond` samples
/// above its rank.  Nearest-rank definition: percentile q of n sorted
/// samples is the ceil(q*n)-th smallest, and n - ceil(q*n) samples lie
/// beyond it.  `q` is 0 when no ladder percentile qualifies.
struct Tail {
  double q = 0.0;
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};
[[nodiscard]] Tail tail_percentile(std::vector<double> samples,
                                   std::size_t min_beyond = 10);

/// Nearest-rank percentile q in (0, 1] of the samples, and how many
/// samples lie beyond it.
[[nodiscard]] Tail percentile(std::vector<double> samples, double q);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
