#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace gnnerator::obs {

/// Measured execution history of one (plan class, device class) pair: the
/// device cycles each dispatched execution took, folded into an EWMA. An
/// observability feed (report and registry); serving cost does not read it —
/// the server prices an executed identity by its memoized result's cycles.
struct ExecWindow {
  /// Plan-compatibility class key (Outcome::class_key; the fuse class for
  /// sampled batches — the fused execution is what occupied the device).
  std::string plan_class;
  /// Device class name; "legacy" on a classless homogeneous fleet.
  std::string device_class;
  std::uint64_t observations = 0;
  /// Most recent measured execution, in device cycles.
  std::uint64_t last_cycles = 0;
  /// Exponentially weighted moving average of the measurements.
  double ewma_cycles = 0.0;
  std::uint64_t min_cycles = 0;
  std::uint64_t max_cycles = 0;
};

/// Accumulates ExecWindows across serve runs (the Recorder owns one; it is
/// not reset by begin_run — execution history is long-lived, like the plan
/// cache). Deterministic: backed by std::map, so snapshot order is the
/// lexicographic (plan class, device class) order regardless of insertion.
class ExecWindowLog {
 public:
  /// EWMA smoothing: each measurement moves the average this fraction of
  /// the way toward itself.
  static constexpr double kEwmaAlpha = 0.25;

  void record(const std::string& plan_class, const std::string& device_class,
              std::uint64_t cycles);

  /// All pairs, sorted by (plan class, device class).
  [[nodiscard]] std::vector<ExecWindow> snapshot() const;
  [[nodiscard]] std::size_t size() const { return windows_.size(); }
  [[nodiscard]] std::uint64_t total_observations() const { return total_observations_; }

 private:
  std::map<std::pair<std::string, std::string>, ExecWindow> windows_;
  std::uint64_t total_observations_ = 0;
};

}  // namespace gnnerator::obs
