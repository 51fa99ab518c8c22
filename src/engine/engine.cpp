#include "engine/engine.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "common/math_util.hpp"
#include "pim/fault.hpp"
#include "tc/kernel.hpp"
#include "tc/layout.hpp"

namespace pimtc::engine {

CountReport TriangleCountEngine::count(const graph::EdgeList& graph) {
  add_edges(graph.edges());
  return recount();
}

void TriangleCountEngine::apply(std::span<const EdgeUpdate> updates) {
  std::vector<Edge> inserts;
  inserts.reserve(updates.size());
  for (const EdgeUpdate& u : updates) {
    if (!u.is_insert) {
      throw std::invalid_argument(
          std::string(name()) +
          " backend does not support edge deletions under this "
          "configuration (capabilities().deletions is false)");
    }
    inserts.push_back(u.edge);
  }
  add_edges(inserts);
}

void TriangleCountEngine::remove_edges(std::span<const Edge> batch) {
  std::vector<EdgeUpdate> updates;
  updates.reserve(batch.size());
  for (const Edge e : batch) updates.push_back(delete_of(e));
  apply(updates);
}

void EngineConfig::validate() const {
  const std::uint32_t colors = validate_pipeline();
  // The engine-API rules below are deliberately not pipeline rules: the PIM
  // counter itself counts correctly with C == 1 and with a rank wider than
  // the machine (the white-box tests construct it directly that way).
  if (colors < 2) {
    throw std::invalid_argument(
        "EngineConfig: num_colors must be >= 2 (C == 1 degenerates to one "
        "monochromatic core)");
  }
  if (pim.dpus_per_rank > pim.max_dpus) {
    throw std::invalid_argument(
        "EngineConfig: pim.dpus_per_rank (" +
        std::to_string(pim.dpus_per_rank) + ") exceeds pim.max_dpus (" +
        std::to_string(pim.max_dpus) + ")");
  }
}

std::uint32_t EngineConfig::validate_pipeline() const {
  // 0 = auto: the largest C whose binom(C+2, 3) triplets fit the machine.
  const std::uint32_t colors =
      num_colors == 0 ? color::PartitionPlan::auto_colors(pim.max_dpus)
                      : num_colors;
  if (colors == 0) {
    throw std::invalid_argument(
        "EngineConfig: auto color selection found no C fitting " +
        std::to_string(pim.max_dpus) + " PIM cores");
  }
  const std::uint64_t dpus = num_triplets(colors);
  if (dpus > pim.max_dpus) {
    throw std::invalid_argument(
        "EngineConfig: " + std::to_string(colors) + " colors need " +
        std::to_string(dpus) + " PIM cores but the system has " +
        std::to_string(pim.max_dpus));
  }
  if (tasklets == 0 || tasklets > pim.max_tasklets) {
    throw std::invalid_argument(
        "EngineConfig: tasklets must be in [1, " +
        std::to_string(pim.max_tasklets) + "], got " +
        std::to_string(tasklets));
  }
  if (!(uniform_p > 0.0 && uniform_p <= 1.0)) {  // also rejects NaN
    throw std::invalid_argument("EngineConfig: uniform_p must be in (0, 1]");
  }
  // Lower bound 4 = the kernels' minimum burst; upper bound = the budget
  // the kernels would otherwise clamp to.  Validated, never silently moved.
  const std::uint32_t max_buffer = tc::max_wram_buffer_edges(pim, tasklets);
  if (wram_buffer_edges < 4 || wram_buffer_edges > max_buffer) {
    throw std::invalid_argument(
        "EngineConfig: wram_buffer_edges must be in [4, " +
        std::to_string(max_buffer) +
        "] (kernel minimum burst; worst-case per-tasklet buffers must fit "
        "the WRAM budget), got " +
        std::to_string(wram_buffer_edges));
  }
  if (misra_gries_enabled && (mg_capacity == 0 || mg_top == 0)) {
    throw std::invalid_argument(
        "EngineConfig: Misra-Gries needs mg_capacity >= 1 and mg_top >= 1");
  }
  if (misra_gries_enabled && mg_top > mg_capacity) {
    throw std::invalid_argument(
        "EngineConfig: mg_top (" + std::to_string(mg_top) +
        ") exceeds mg_capacity (" + std::to_string(mg_capacity) +
        "): cannot remap more nodes than Misra-Gries tracks");
  }
  if (degree_ordered_remap && !misra_gries_enabled) {
    throw std::invalid_argument(
        "EngineConfig: degree_ordered_remap requires misra_gries_enabled "
        "(the ordering comes from the Misra-Gries degree estimates)");
  }
  if (gallop_margin == 0) {
    throw std::invalid_argument(
        "EngineConfig: gallop_margin must be >= 1 (auto-policy crossover "
        "factor)");
  }
  if (cpu_fast_hub_degree == 1) {
    throw std::invalid_argument(
        "EngineConfig: cpu_fast_hub_degree must be 0 (bitmap disabled) or "
        ">= 2 (a source needs two out-neighbors to close a triangle)");
  }
  if (!(rebalance_min_gain >= 1.0)) {  // also rejects NaN
    throw std::invalid_argument(
        "EngineConfig: rebalance_min_gain must be >= 1");
  }
  if (pim.dpus_per_rank == 0) {
    throw std::invalid_argument(
        "EngineConfig: pim.dpus_per_rank must be >= 1");
  }
  if (tc::MramLayout::max_capacity(pim.mram_bytes) == 0) {
    throw std::invalid_argument(
        "EngineConfig: MRAM bank too small to hold any sample");
  }
  // Reject malformed fault specs up front, with parse's own diagnostics
  // (std::invalid_argument naming the offending key).
  if (!fault_spec.empty()) (void)pim::FaultSpec::parse(fault_spec);
  return colors;
}

}  // namespace pimtc::engine
