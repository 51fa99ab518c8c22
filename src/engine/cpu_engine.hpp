// CPU backends behind the engine interface.
//
// "cpu" — the paper's CSR-converting comparator (baseline::CpuTriangleCounter)
// as a streaming session: add_edges() appends to an accumulated COO and
// every recount() pays the full COO->CSR conversion of everything received
// so far, exactly the property the dynamic experiment (Figure 7) exposes.
//
// "cpu-incremental" — an exact COO-native engine that maintains an
// adjacency structure in place: each new edge closes triangles against the
// graph streamed so far, so recount() cost follows the batch, not the
// accumulated graph.  Every triangle is counted exactly once, at the
// insertion of its last edge; duplicate edges and self loops are dropped on
// arrival, so it tolerates un-preprocessed streams.  It is fully dynamic:
// apply() deletions subtract the triangles the removed edge currently
// closes (the exact mirror of the insertion rule), so the running total is
// exact under arbitrary ± streams — this engine is the parity oracle the
// mixed-stream tests and the CLI --exact-check run against.  Deleting an
// edge that is not present (never inserted, or already deleted) is a
// detected no-op.
#pragma once

#include <memory>
#include <vector>

#include "baseline/cpu_tc.hpp"
#include "common/edge_key_set.hpp"
#include "engine/engine.hpp"
#include "graph/coo.hpp"

namespace pimtc::engine {

class CpuEngine final : public TriangleCountEngine {
 public:
  explicit CpuEngine(const EngineConfig& config);

  void add_edges(std::span<const Edge> batch) override;
  CountReport recount() override;
  [[nodiscard]] EngineCapabilities capabilities() const override;
  [[nodiscard]] const char* name() const noexcept override { return "cpu"; }
  void reset_timers() override;

 private:
  /// Dedicated pool only when host_threads is pinned; otherwise the counter
  /// shares the process-global pool (throwaway engines stay cheap).
  std::unique_ptr<ThreadPool> pool_;
  baseline::CpuTriangleCounter counter_;
  graph::EdgeList accumulated_;
  PhaseTimes times_;  ///< accumulated measured seconds since last reset
  /// recount() memoization: with no batch since the last recount the cached
  /// report is returned without rebuilding the CSR (queue-dry republishes).
  bool dirty_ = true;
  bool has_report_ = false;
  CountReport cached_;
};

class IncrementalCpuEngine final : public TriangleCountEngine {
 public:
  explicit IncrementalCpuEngine(const EngineConfig& config);

  void add_edges(std::span<const Edge> batch) override;
  void apply(std::span<const EdgeUpdate> updates) override;
  CountReport recount() override;
  [[nodiscard]] EngineCapabilities capabilities() const override;
  [[nodiscard]] const char* name() const noexcept override {
    return "cpu-incremental";
  }
  void reset_timers() override { times_ = {}; }

 private:
  /// Inserts one stream edge (dedup + triangle closure); the add_edges body.
  void insert_one(Edge raw);
  /// Deletes one stream edge: subtracts the triangles it currently closes,
  /// then unlinks it from the hash adjacency.  Exact inverse of insert_one.
  void delete_one(Edge raw);

  EdgeKeySet edge_set_;  ///< canonical edge keys
  std::vector<std::vector<NodeId>> adj_;
  TriangleCount total_ = 0;
  std::uint64_t edges_streamed_ = 0;
  std::uint64_t edges_stored_ = 0;
  std::uint64_t edges_deleted_ = 0;   ///< deletions that removed an edge
  std::uint64_t delete_misses_ = 0;   ///< deletions of absent edges (no-op)
  std::uint64_t probes_ = 0;  ///< membership probes (the work profile)
  PhaseTimes times_;
};

}  // namespace pimtc::engine
