#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace gnnerator::util {

/// Deterministic pseudo-random number generator (xoshiro256**), seeded via
/// SplitMix64. Every stochastic component in the library (graph generators,
/// weight initialisation, workload synthesis) draws from this type so that
/// all experiments are bit-reproducible across runs and platforms.
class Prng {
 public:
  /// Seeds the four 64-bit lanes from `seed` using SplitMix64 so that even
  /// adjacent seeds produce uncorrelated streams.
  explicit Prng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit output.
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound). `bound` must be nonzero. Uses rejection
  /// sampling (Lemire-style) to avoid modulo bias.
  std::uint64_t uniform_u64(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box-Muller (deterministic, no cached spare so the
  /// stream position is a pure function of call count).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// True with probability p.
  bool bernoulli(double p);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Weights must be non-negative with a positive sum.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of an index permutation [0, n).
  std::vector<std::uint32_t> permutation(std::uint32_t n);

  /// Creates an independent child stream; deterministic function of the
  /// parent's current state and `stream_id`.
  Prng fork(std::uint64_t stream_id);

 private:
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace gnnerator::util
