#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/prng.hpp"

namespace gnnerator::util {

/// Geometric mean of strictly positive values (the paper reports Gmean
/// speedups in Figs. 3 and 5). Throws CheckError on empty or non-positive
/// input.
double geomean(std::span<const double> values);

/// Minimum / maximum. Throw on empty input.
double min_value(std::span<const double> values);
double max_value(std::span<const double> values);

/// Simple accumulator for streaming summaries (count, sum, mean, max).
class RunningStats {
 public:
  void add(double value);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Streaming quantile estimator for latency-style metrics (serve::Metrics):
/// stores every sample exactly up to `bound`, then degrades to uniform
/// reservoir sampling (Vitter's Algorithm R) over a fixed-size reservoir.
/// Within the exact regime, quantile() equals a brute-force sort of all
/// samples; beyond it, quantiles are unbiased estimates. Fully
/// deterministic: the reservoir's replacement stream comes from an internal
/// seeded Prng, so the same sample sequence always yields the same answer.
class StreamingQuantiles {
 public:
  explicit StreamingQuantiles(std::size_t bound = 4096,
                              std::uint64_t seed = 0x5EEDC0DEull);

  void add(double value);

  /// The q-quantile (q in [0, 1]) with linear interpolation between order
  /// statistics (the "numpy linear" definition). Throws CheckError on an
  /// empty estimator or q outside [0, 1].
  [[nodiscard]] double quantile(double q) const;

  /// Samples seen (not the reservoir size).
  [[nodiscard]] std::size_t count() const { return count_; }
  /// True while every sample is still held (quantiles are exact).
  [[nodiscard]] bool exact() const { return count_ <= bound_; }

 private:
  std::size_t bound_;
  std::size_t count_ = 0;
  std::vector<double> samples_;
  Prng prng_;
  /// Scratch for quantile(): sorted copy, rebuilt only after new samples.
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace gnnerator::util
