#include "engine/ingest.hpp"

#include <chrono>
#include <future>
#include <utility>

#include "common/edge_key_set.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace pimtc::engine {
namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Parallel chunks below this run the histogram sequentially — the
/// range-scan pattern only pays off once every worker has real work.
constexpr std::size_t kParallelDegreeEdges = std::size_t{1} << 16;

/// Folds one chunk into the running degree histogram.  Each pool worker
/// owns a disjoint node range and scans the whole chunk counting only its
/// own nodes (dodg.cpp phase-1 pattern): disjoint writes, no atomics, no
/// per-thread histogram copies to merge.
void accumulate_degrees(std::span<const Edge> chunk,
                        std::vector<std::uint32_t>& degrees,
                        ThreadPool& pool) {
  if (chunk.empty()) return;
  NodeId max_node = 0;
  for (const Edge& e : chunk) {
    if (e.u > max_node) max_node = e.u;
    if (e.v > max_node) max_node = e.v;
  }
  if (degrees.size() <= max_node) {
    degrees.resize(std::size_t{max_node} + 1, 0);
  }
  if (chunk.size() < kParallelDegreeEdges || pool.size() <= 1) {
    for (const Edge& e : chunk) {
      ++degrees[e.u];
      ++degrees[e.v];
    }
    return;
  }
  pool.parallel_chunks(
      degrees.size(),
      [&](std::size_t, std::size_t lo, std::size_t hi) {
        for (const Edge& e : chunk) {
          if (e.u >= lo && e.u < hi) ++degrees[e.u];
          if (e.v >= lo && e.v < hi) ++degrees[e.v];
        }
      });
}

}  // namespace

IngestStats ingest_stream(
    graph::ChunkedEdgeReader& reader,
    const std::function<void(std::span<const Edge>)>& sink,
    const IngestOptions& options) {
  ThreadPool& pool = options.pool != nullptr ? *options.pool
                                             : ThreadPool::global();
  IngestStats stats;
  const bool dedup = options.dedup != DedupMode::kNone;
  const bool filtering = options.drop_self_loops || dedup;
  std::vector<Edge> scratch;      // reused filtered-chunk buffer
  EdgeKeySet seen;                // dedup keys (canonical)
  if (options.dedup == DedupMode::kGlobal) {
    if (const auto declared = reader.declared_edges()) seen.reserve(*declared);
  }

  // Producer side: reader.next() with its time charged to read_seconds.
  // Between submit() and get() only the producer touches the reader and
  // read_seconds; the future's get() is the synchronization point.
  auto timed_next = [&reader, &stats]() {
    const auto t0 = Clock::now();
    std::span<const Edge> chunk = reader.next();
    stats.read_seconds += seconds_since(t0);
    return chunk;
  };

  std::span<const Edge> chunk = timed_next();
  std::future<std::span<const Edge>> pending;
  try {
    while (!chunk.empty()) {
      if (options.overlap_io) pending = pool.submit(timed_next);

      auto t0 = Clock::now();
      std::span<const Edge> feed = chunk;
      if (filtering) {
        scratch.clear();
        if (options.dedup == DedupMode::kChunk) seen.clear();
        for (std::size_t i = 0; i < chunk.size(); ++i) {
          const std::size_t ahead = i + EdgeKeySet::kPrefetchDistance;
          if (dedup && ahead < chunk.size()) {
            seen.prefetch(edge_key(chunk[ahead].canonical()));
          }
          const Edge e = chunk[i];
          if (options.drop_self_loops && e.is_loop()) {
            ++stats.self_loops_dropped;
            continue;
          }
          if (dedup && !seen.insert(edge_key(e.canonical()))) {
            ++stats.duplicates_dropped;
            continue;
          }
          scratch.push_back(e);
        }
        feed = scratch;
      }
      for (const Edge& e : feed) {
        const std::uint64_t bound = std::uint64_t{e.u > e.v ? e.u : e.v} + 1;
        if (bound > stats.node_bound) stats.node_bound = bound;
      }
      if (options.compute_degrees) accumulate_degrees(feed, stats.degrees, pool);
      stats.preprocess_seconds += seconds_since(t0);

      t0 = Clock::now();
      sink(feed);
      stats.feed_seconds += seconds_since(t0);
      stats.edges_ingested += feed.size();
      ++stats.chunks;

      chunk = options.overlap_io ? pending.get() : timed_next();
    }
  } catch (...) {
    // The producer task holds a reference to the reader (owned by our
    // caller) — never unwind past it while it is still running.
    if (pending.valid()) pending.wait();
    throw;
  }

  stats.edges_read = reader.edges_read();
  stats.mapped = reader.mapped();
  return stats;
}

IngestStats ingest_file(TriangleCountEngine& engine,
                        const std::filesystem::path& path,
                        const IngestOptions& options) {
  graph::ChunkedEdgeReader reader(path, options.reader);
  return ingest_stream(
      reader,
      [&engine](std::span<const Edge> batch) {
        if (!batch.empty()) engine.add_edges(batch);
      },
      options);
}

std::vector<std::uint32_t> stream_degrees(const std::filesystem::path& path,
                                          const graph::ReaderOptions& reader,
                                          ThreadPool* pool) {
  graph::ChunkedEdgeReader source(path, reader);
  IngestOptions options;
  options.reader = reader;
  options.drop_self_loops = true;
  options.compute_degrees = true;
  options.pool = pool;
  IngestStats stats =
      ingest_stream(source, [](std::span<const Edge>) {}, options);
  return std::move(stats.degrees);
}

}  // namespace pimtc::engine
