#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace gnnerator::obs {

/// Measured execution history of one (plan class, device class) pair: the
/// device cycles the memoized engine execution actually took, folded into an
/// EWMA. This is the calibration feed the ROADMAP's measurement-driven cost
/// oracle needs — an analytic estimate can be blended against `ewma_cycles`
/// once a pair has observations.
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
/// not reset by begin_run — calibration history is long-lived, like the plan
/// cache). A pair is interned once into a dense id, then recorded and read
/// by id. An interned pair stays invisible until its first record: snapshot,
/// size and total_observations see only observed windows, in lexicographic
/// (plan class, device class) order regardless of insertion.
class ExecWindowLog {
 public:
  using Id = std::uint32_t;

  explicit ExecWindowLog(double ewma_alpha = 0.25) : alpha_(ewma_alpha) {}

  /// The pair's dense id, allocating an unobserved window on first sight.
  Id intern(const std::string& plan_class, const std::string& device_class);
  /// Folds one measured execution into the window's EWMA.
  void record(Id id, std::uint64_t cycles);
  /// The window of an interned pair (observations == 0 until recorded).
  [[nodiscard]] const ExecWindow& window(Id id) const { return windows_[id]; }

  /// All observed pairs, sorted by (plan class, device class).
  [[nodiscard]] std::vector<ExecWindow> snapshot() const;
  [[nodiscard]] std::size_t size() const { return observed_; }
  [[nodiscard]] std::uint64_t total_observations() const { return total_observations_; }

 private:
  double alpha_;
  std::vector<ExecWindow> windows_;  ///< by id
  /// (plan class, device class) -> id, in snapshot order.
  std::map<std::pair<std::string, std::string>, Id> ids_;
  std::size_t observed_ = 0;
  std::uint64_t total_observations_ = 0;
};

}  // namespace gnnerator::obs
