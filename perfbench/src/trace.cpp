#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {
namespace {

// Open recorded spans of the calling thread, innermost last.
thread_local std::vector<std::uint64_t> t_open_spans;

std::uint32_t this_thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

void write_json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

Tracer::Span::Span(Tracer& tracer, const char* layer, std::string name)
    : tracer_(tracer), layer_(layer), name_(std::move(name)) {
  if (tracer_.recording()) {
    id_ = tracer_.next_id_.fetch_add(1);
    parent_ = t_open_spans.empty() ? 0 : t_open_spans.back();
    t_open_spans.push_back(id_);
  }
  start_s_ = tracer_.now_s();
}

double Tracer::Span::end() {
  if (duration_s_ >= 0.0) return duration_s_;
  const double end_s = tracer_.now_s();
  duration_s_ = end_s - start_s_;
  if (id_ != 0) {
    t_open_spans.pop_back();
    tracer_.record(SpanRecord{id_, parent_, layer_, std::move(name_), start_s_,
                              end_s, this_thread_index()});
  }
  return duration_s_;
}

void Tracer::record(SpanRecord r) {
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(r));
}

std::vector<SpanRecord> Tracer::records() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

void Tracer::write_chrome_json(const std::filesystem::path& path) const {
  const std::vector<SpanRecord> spans = records();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  out.precision(3);
  out << std::fixed << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"cat\":";
    write_json_string(out, s.layer);
    out << ",\"name\":";
    write_json_string(out, s.layer + "." + s.name);
    out << ",\"ts\":" << s.start_s * 1e6 << ",\"dur\":" << s.duration_s() * 1e6
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("write failed: " + path.string());
}

std::vector<LayerTime> layer_self_times(const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, double> child_time;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_time[s.parent] += s.duration_s();
  }
  std::map<std::string, LayerTime> by_layer;
  for (const SpanRecord& s : spans) {
    LayerTime& lt = by_layer[s.layer];
    lt.layer = s.layer;
    lt.total_s += s.duration_s();
    const auto it = child_time.find(s.id);
    lt.self_s += std::max(
        0.0, s.duration_s() - (it == child_time.end() ? 0.0 : it->second));
    ++lt.spans;
  }
  std::vector<LayerTime> out;
  for (auto& [name, lt] : by_layer) out.push_back(lt);
  std::sort(out.begin(), out.end(), [](const LayerTime& a, const LayerTime& b) {
    return a.self_s > b.self_s;
  });
  return out;
}

double top_level_coverage(const std::vector<SpanRecord>& spans, double start_s,
                          double end_s) {
  if (end_s <= start_s) return 0.0;
  std::vector<std::pair<double, double>> iv;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) continue;
    const double a = std::max(s.start_s, start_s);
    const double b = std::min(s.end_s, end_s);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  double reach = start_s;
  for (const auto& [a, b] : iv) {
    if (b <= reach) continue;
    covered += b - std::max(a, reach);
    reach = b;
  }
  return covered / (end_s - start_s);
}

SpanSum span_sum(const std::vector<SpanRecord>& spans, const std::string& layer,
                 const std::string& name) {
  SpanSum sum;
  for (const SpanRecord& s : spans) {
    if (s.layer == layer && s.name == name) {
      sum.total_s += s.duration_s();
      ++sum.count;
    }
  }
  return sum;
}

}  // namespace perfbench
