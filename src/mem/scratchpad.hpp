#pragma once

#include <cstdint>
#include <string>

namespace gnnerator::mem {

/// On-chip SRAM buffer model. Timing of SRAM access is folded into the
/// engines' throughput models (the paper sizes memory widths so no SRAM
/// bandwidth is wasted, §VI-A); what the scratchpad enforces is *capacity* —
/// the compiler must never schedule a working set larger than the buffer —
/// and what it records is access counts, which is how the feature-blocking
/// overhead of re-scanning the edge list on-chip shows up in the stats.
class Scratchpad {
 public:
  Scratchpad(std::string name, std::uint64_t capacity_bytes);

  /// Claims `bytes`; throws CheckError on overflow. Returns the new fill.
  std::uint64_t allocate(std::uint64_t bytes);

  /// Releases `bytes`; throws if more than currently allocated.
  void release(std::uint64_t bytes);

  /// Resets fill to zero (e.g. between layers).
  void reset();

  /// Records `bytes` of read/write traffic into the access counters.
  void record_read(std::uint64_t bytes) { read_bytes_ += bytes; }
  void record_write(std::uint64_t bytes) { write_bytes_ += bytes; }

  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t allocated() const { return allocated_; }
  [[nodiscard]] std::uint64_t peak_allocated() const { return peak_; }
  [[nodiscard]] bool fits(std::uint64_t bytes) const { return allocated_ + bytes <= capacity_; }

  [[nodiscard]] std::uint64_t read_bytes() const { return read_bytes_; }
  [[nodiscard]] std::uint64_t write_bytes() const { return write_bytes_; }

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  std::string name_;
  std::uint64_t capacity_;
  std::uint64_t allocated_ = 0;
  std::uint64_t peak_ = 0;
  std::uint64_t read_bytes_ = 0;
  std::uint64_t write_bytes_ = 0;
};

/// A pair of identically-sized scratchpad banks with front/back roles: the
/// engine computes out of the front bank while DMA fills the back bank, then
/// `swap()` flips roles at a task boundary. All of GNNerator's on-chip
/// buffers are double-buffered (paper §III-A/B).
class DoubleBuffer {
 public:
  DoubleBuffer(const std::string& name, std::uint64_t bytes_per_bank);

  [[nodiscard]] Scratchpad& front() { return banks_[front_]; }
  [[nodiscard]] Scratchpad& back() { return banks_[1 - front_]; }
  [[nodiscard]] const Scratchpad& front() const { return banks_[front_]; }
  [[nodiscard]] const Scratchpad& back() const { return banks_[1 - front_]; }

  void swap() { front_ = 1 - front_; ++swap_count_; }

  [[nodiscard]] std::uint64_t bytes_per_bank() const { return banks_[0].capacity(); }
  [[nodiscard]] std::uint64_t swap_count() const { return swap_count_; }

 private:
  Scratchpad banks_[2];
  int front_ = 0;
  std::uint64_t swap_count_ = 0;
};

}  // namespace gnnerator::mem
