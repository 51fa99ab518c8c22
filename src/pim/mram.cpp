#include "pim/mram.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <string>

namespace pimtc::pim {

void MramBank::Unmap::operator()(std::uint8_t* base) const noexcept {
  ::munmap(base, bytes);
}

void MramBank::map() {
  const std::uint64_t pages = (capacity_ + kPageBytes - 1) / kPageBytes;
  const std::size_t bytes = static_cast<std::size_t>(pages * kPageBytes);
  void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) throw std::bad_alloc();
  base_ = std::unique_ptr<std::uint8_t, Unmap>(
      static_cast<std::uint8_t*>(base), Unmap{bytes});
  written_.assign(static_cast<std::size_t>(pages), false);
}

void MramBank::check_range(std::uint64_t offset, std::uint64_t bytes) const {
  if (offset + bytes > capacity_) {
    throw PimMemoryError("MRAM bank overflow: access up to byte " +
                         std::to_string(offset + bytes) +
                         " exceeds capacity " + std::to_string(capacity_));
  }
}

std::span<std::uint8_t> MramBank::writable(std::uint64_t offset,
                                           std::size_t bytes) {
  check_range(offset, bytes);
  ++write_calls_;
  high_water_ = std::max(high_water_, offset + bytes);
  if (bytes == 0) return {};
  if (!base_) map();
  for (std::uint64_t page = offset / kPageBytes;
       page <= (offset + bytes - 1) / kPageBytes; ++page) {
    if (!written_[page]) {
      written_[page] = true;
      ++resident_pages_;
    }
  }
  return {base_.get() + offset, bytes};
}

void MramBank::write(std::uint64_t offset, const void* src, std::size_t bytes) {
  const std::span<std::uint8_t> dst = writable(offset, bytes);
  if (!dst.empty()) std::memcpy(dst.data(), src, bytes);
}

void MramBank::read(std::uint64_t offset, void* dst, std::size_t bytes) const {
  if (offset + bytes > capacity_) {
    throw PimMemoryError("MRAM bank read past capacity");
  }
  ++read_calls_;
  if (base_) {
    // Never-written frames of the mapping read as the kernel's zero page.
    std::memcpy(dst, base_.get() + offset, bytes);
  } else {
    std::memset(dst, 0, bytes);
  }
}

}  // namespace pimtc::pim
