// MRAM bank model: the 64 MB DRAM bank attached to one DPU.
//
// Functionally a flat byte array with bounds enforcement — capacity is the
// *architectural* constraint that motivates reservoir sampling (paper
// Section 3.3).  Simulating thousands of DPUs must cost memory proportional
// to the bytes actually touched, even when data structures sit at
// capacity-derived offsets deep inside the bank.  So the first write maps
// the whole bank as one anonymous, unreserved mapping: the kernel backs
// (and zeroes) only the frames actually written, never-written bytes read
// as zeros (like DRAM after a reset), and the destructor unmaps the bank,
// handing every frame back to the OS.  Heap pages would not come back:
// written from pool threads, they scatter over glibc's per-thread arenas,
// and a process that built pim engine after pim engine kept growing its
// peak RSS.  A bank allocates nothing until its first write; resident
// bytes are accounted in 64 KB pages.  Access-call counters let tests and
// benches verify that hot paths batch their traffic instead of issuing
// per-record operations.
//
// writable() hands out a bounds-checked view of a range instead of copying
// into it: the range is accounted exactly like a write() of it (pages
// resident, one write call), and the caller fills it in place — the host
// ingest path writes each replicated edge straight into its bank slot from
// several threads at disjoint positions.  The bookkeeping itself is not
// thread-safe: take every view of a bank from one thread, before the fill.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace pimtc::pim {

class PimMemoryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class MramBank {
 public:
  explicit MramBank(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }

  /// Largest offset ever written + 1; proxy for bank occupancy.
  [[nodiscard]] std::uint64_t high_water() const noexcept {
    return high_water_;
  }

  /// Bytes of host memory actually backing this bank.
  [[nodiscard]] std::uint64_t resident_bytes() const noexcept {
    return resident_pages_ * kPageBytes;
  }

  /// Lifetime access-call tallies (one per write()/read() invocation,
  /// regardless of size) — the observable difference between per-record
  /// loops and bulk transfers.
  [[nodiscard]] std::uint64_t write_calls() const noexcept {
    return write_calls_;
  }
  [[nodiscard]] std::uint64_t read_calls() const noexcept {
    return read_calls_;
  }

  void write(std::uint64_t offset, const void* src, std::size_t bytes);

  /// Accounts [offset, offset + bytes) as written (bounds check, resident
  /// pages, high-water mark, one write call) and returns it for the caller
  /// to fill.  The view stays valid until clear() or destruction.
  [[nodiscard]] std::span<std::uint8_t> writable(std::uint64_t offset,
                                                 std::size_t bytes);

  /// Typed writable(): `count` records of T at `offset`.
  template <typename T>
  [[nodiscard]] std::span<T> writable_t(std::uint64_t offset,
                                        std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (offset % alignof(T) != 0) {
      throw PimMemoryError("MRAM view misaligned for its record type");
    }
    const std::span<std::uint8_t> raw = writable(offset, count * sizeof(T));
    return {reinterpret_cast<T*>(raw.data()), count};
  }

  /// The bounds check of write() alone: throws PimMemoryError unless
  /// [offset, offset + bytes) lies inside the bank.  For kernel scratch
  /// data the host execution keeps in host memory instead of the bank.
  void check_range(std::uint64_t offset, std::uint64_t bytes) const;

  /// Reads `bytes` at `offset`; spans of never-written pages read as zeros.
  void read(std::uint64_t offset, void* dst, std::size_t bytes) const;

  /// Typed helpers for single records.
  template <typename T>
  void write_t(std::uint64_t offset, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    write(offset, &value, sizeof(T));
  }

  template <typename T>
  [[nodiscard]] T read_t(std::uint64_t offset) const {
    T value;
    read(offset, &value, sizeof(T));
    return value;
  }

  void clear() {
    base_.reset();
    written_.clear();
    resident_pages_ = 0;
    high_water_ = 0;
  }

 private:
  // pimtc-lint: allow(memory-budget) -- backing-page granularity of this sparse store, not the WRAM budget
  static constexpr std::uint64_t kPageBytes = 64 << 10;

  struct Unmap {
    std::size_t bytes;
    void operator()(std::uint8_t* base) const noexcept;
  };

  /// Maps the bank and its page table (first write).
  void map();

  std::uint64_t capacity_;
  std::unique_ptr<std::uint8_t, Unmap> base_;  ///< whole bank, once written
  std::vector<bool> written_;  ///< per page: ever written (resident)
  std::uint64_t resident_pages_ = 0;
  std::uint64_t high_water_ = 0;
  std::uint64_t write_calls_ = 0;
  mutable std::uint64_t read_calls_ = 0;
};

}  // namespace pimtc::pim
