#pragma once

#include <cstdint>
#include <string>

namespace gnnerator::util {

/// Byte-size literals used throughout the accelerator configuration.
inline constexpr std::uint64_t kKiB = 1024ULL;
inline constexpr std::uint64_t kMiB = 1024ULL * kKiB;
inline constexpr std::uint64_t kGiB = 1024ULL * kMiB;

/// Decimal giga (bandwidths are quoted in GB/s in the paper's Table IV).
inline constexpr std::uint64_t kGB = 1000ULL * 1000ULL * 1000ULL;

/// Formats a byte count with a binary suffix, e.g. "24.0 MiB".
std::string format_bytes(std::uint64_t bytes);

/// Formats a cycle count with thousands separators, e.g. "1,234,567".
std::string format_cycles(std::uint64_t cycles);

/// ceil(a / b) for positive integers.
constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return (a + b - 1) / b;
}

/// Rounds `a` up to the next multiple of `b`.
constexpr std::uint64_t round_up(std::uint64_t a, std::uint64_t b) {
  return ceil_div(a, b) * b;
}

}  // namespace gnnerator::util
