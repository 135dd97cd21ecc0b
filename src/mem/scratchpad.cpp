#include "mem/scratchpad.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/units.hpp"

namespace gnnerator::mem {

Scratchpad::Scratchpad(std::string name, std::uint64_t capacity_bytes)
    : name_(std::move(name)), capacity_(capacity_bytes) {
  GNNERATOR_CHECK(capacity_ > 0);
}

std::uint64_t Scratchpad::allocate(std::uint64_t bytes) {
  GNNERATOR_CHECK_MSG(fits(bytes), name_ << ": allocating " << bytes << " B over capacity "
                                         << util::format_bytes(capacity_) << " (fill "
                                         << allocated_ << " B)");
  allocated_ += bytes;
  peak_ = std::max(peak_, allocated_);
  return allocated_;
}

void Scratchpad::release(std::uint64_t bytes) {
  GNNERATOR_CHECK_MSG(bytes <= allocated_,
                      name_ << ": releasing " << bytes << " B with only " << allocated_
                            << " B allocated");
  allocated_ -= bytes;
}

void Scratchpad::reset() { allocated_ = 0; }

DoubleBuffer::DoubleBuffer(const std::string& name, std::uint64_t bytes_per_bank)
    : banks_{Scratchpad(name + ".bank0", bytes_per_bank),
             Scratchpad(name + ".bank1", bytes_per_bank)} {}

}  // namespace gnnerator::mem
