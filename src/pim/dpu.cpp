#include "pim/dpu.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/math_util.hpp"

namespace pimtc::pim {

void Tasklet::mram_read(std::uint64_t mram_offset, void* dst,
                        std::size_t bytes) {
  dpu_->mram_.read(mram_offset, dst, bytes);
  dma(bytes);
}

void Tasklet::mram_write(std::uint64_t mram_offset, const void* src,
                         std::size_t bytes) {
  dpu_->mram_.write(mram_offset, src, bytes);
  dma(bytes);
}

double Dpu::dma_cost_cycles(std::size_t bytes) const noexcept {
  const auto aligned =
      round_up(bytes, config_.dma_alignment_bytes);
  return config_.dma_setup_cycles +
         static_cast<double>(aligned) * config_.dma_cycles_per_byte;
}

void Dpu::parallel(std::uint32_t num_tasklets,
                   const std::function<void(Tasklet&)>& body) {
  if (num_tasklets == 0 || num_tasklets > config_.max_tasklets) {
    throw std::invalid_argument("Dpu::parallel: bad tasklet count");
  }
  if (in_parallel_) {
    throw std::logic_error("Dpu::parallel: nested parallel sections");
  }
  in_parallel_ = true;

  // Run each tasklet, folding its account into the phase (see header for
  // the model).  A tasklet's DMA latency is transfers x setup plus its
  // padded bytes x the per-byte cost: the closed form of summing each
  // transfer's charge, bit for bit (every term is an integer-valued double
  // far below 2^53, so no sum here rounds).
  const double s = config_.pipeline_saturation_tasklets;
  std::uint64_t total = 0;
  double straggler_bound = 0.0;
  double engine_cycles = 0.0;  // shared DMA engine occupancy
  for (std::uint32_t t = 0; t < num_tasklets; ++t) {
    Tasklet tasklet(*this, t);
    body(tasklet);
    const double byte_cycles = static_cast<double>(tasklet.aligned_bytes_) *
                               config_.dma_cycles_per_byte;
    const auto transfers = static_cast<double>(tasklet.transfers_);
    const double latency = transfers * config_.dma_setup_cycles + byte_cycles;
    engine_cycles += transfers * config_.dma_engine_cycles + byte_cycles;
    straggler_bound = std::max(
        straggler_bound, static_cast<double>(tasklet.instr_) * s + latency);
    total += tasklet.instr_;
    lifetime_instr_ += tasklet.instr_;
    lifetime_dma_bytes_ += tasklet.bytes_;
    lifetime_dma_transfers_ += tasklet.transfers_;
  }

  const double issue_bound =
      static_cast<double>(total) * std::max(1.0, s / num_tasklets);
  cycles_ += std::max({issue_bound, straggler_bound, engine_cycles});
  in_parallel_ = false;
}

void Dpu::serial_instr(std::uint64_t n) noexcept {
  // A lone context issues one instruction per `saturation` cycles only when
  // nothing else is resident; the receive path in the real kernel runs a
  // single tasklet, so charge the full pipeline-depth stall.
  cycles_ += static_cast<double>(n) *
             static_cast<double>(config_.pipeline_saturation_tasklets);
  lifetime_instr_ += n;
}

void Dpu::serial_dma(std::uint64_t bytes) noexcept {
  cycles_ += dma_cost_cycles(bytes);
  lifetime_dma_bytes_ += bytes;
}

void Dpu::charge_parallel_instr(std::uint64_t n,
                                std::uint32_t active_tasklets) noexcept {
  const double s =
      static_cast<double>(config_.pipeline_saturation_tasklets);
  const double t = static_cast<double>(
      std::max<std::uint32_t>(1, active_tasklets));
  cycles_ += static_cast<double>(n) * std::max(1.0, s / t);
  lifetime_instr_ += n;
}

void Dpu::charge_dma_bulk(std::uint64_t bytes,
                          std::uint32_t chunk_bytes) noexcept {
  if (bytes == 0) return;
  const std::uint64_t chunks = ceil_div(bytes, chunk_bytes);
  cycles_ += static_cast<double>(chunks) * config_.dma_setup_cycles +
             static_cast<double>(round_up(bytes, config_.dma_alignment_bytes)) *
                 config_.dma_cycles_per_byte;
  lifetime_dma_bytes_ += bytes;
}

}  // namespace pimtc::pim
