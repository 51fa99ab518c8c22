// WRAM scratchpad model: the 64 KB working memory of one DPU.
//
// Kernels must stage MRAM data through WRAM buffers; the arena enforces the
// real capacity so a kernel that would not fit on hardware fails loudly in
// the simulator too (e.g. 16 tasklets x oversized buffers).  Allocation is
// bump-pointer with max_align_t alignment, released wholesale by reset() at
// kernel start, mirroring how UPMEM kernels statically place buffers.
//
// The arena is a budget counter only: the kernels' host execution stages
// data in host memory and charges each WRAM buffer the modeled kernel
// places here, so the arenas of thousands of simulated DPUs cost no host
// memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "pim/mram.hpp"

namespace pimtc::pim {

class WramArena {
 public:
  explicit WramArena(std::uint32_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  /// Charges a buffer of `count` elements of T; throws PimMemoryError when
  /// the scratchpad is exhausted (a real kernel would fail to link/boot).
  template <typename T>
  void reserve(std::size_t count) {
    (void)claim(count * sizeof(T));
  }

  void reset() noexcept { used_ = 0; }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t used() const noexcept { return used_; }
  [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }

 private:
  /// Bump-allocates `bytes`; returns their offset in the arena.
  std::size_t claim(std::size_t bytes) {
    const std::size_t aligned = (used_ + alignof(std::max_align_t) - 1) &
                                ~(alignof(std::max_align_t) - 1);
    if (aligned + bytes > capacity_) {
      throw PimMemoryError("WRAM exhausted: request of " +
                           std::to_string(bytes) + " bytes with " +
                           std::to_string(capacity_ - aligned) + " free");
    }
    used_ = aligned + bytes;
    if (used_ > high_water_) high_water_ = used_;
    return aligned;
  }

  std::size_t capacity_;
  std::size_t used_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace pimtc::pim
