#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace gnnerator::util {

double geomean(std::span<const double> values) {
  GNNERATOR_CHECK(!values.empty());
  double log_sum = 0.0;
  for (double v : values) {
    GNNERATOR_CHECK_MSG(v > 0.0, "geomean requires positive values, got " << v);
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double min_value(std::span<const double> values) {
  GNNERATOR_CHECK(!values.empty());
  return *std::min_element(values.begin(), values.end());
}

double max_value(std::span<const double> values) {
  GNNERATOR_CHECK(!values.empty());
  return *std::max_element(values.begin(), values.end());
}

void RunningStats::add(double value) {
  max_ = count_ == 0 ? value : std::max(max_, value);
  sum_ += value;
  ++count_;
}

double RunningStats::mean() const {
  GNNERATOR_CHECK(count_ > 0);
  return sum_ / static_cast<double>(count_);
}

double RunningStats::max() const {
  GNNERATOR_CHECK(count_ > 0);
  return max_;
}

StreamingQuantiles::StreamingQuantiles(std::size_t bound, std::uint64_t seed)
    : bound_(bound), prng_(seed) {
  GNNERATOR_CHECK_MSG(bound_ > 0, "StreamingQuantiles needs a nonzero bound");
  samples_.reserve(std::min<std::size_t>(bound_, 4096));
}

void StreamingQuantiles::add(double value) {
  if (count_ < bound_) {
    samples_.push_back(value);
  } else {
    // Algorithm R: the (count_+1)-th sample replaces a reservoir slot with
    // probability bound/(count_+1); every prefix stays uniformly sampled.
    const std::uint64_t j = prng_.uniform_u64(count_ + 1);
    if (j < bound_) {
      samples_[static_cast<std::size_t>(j)] = value;
    }
  }
  ++count_;
  sorted_valid_ = false;
}

double StreamingQuantiles::quantile(double q) const {
  GNNERATOR_CHECK_MSG(count_ > 0, "quantile of an empty StreamingQuantiles");
  GNNERATOR_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile q=" << q << " outside [0, 1]");
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  const double rank = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] + frac * (sorted_[hi] - sorted_[lo]);
}

}  // namespace gnnerator::util
