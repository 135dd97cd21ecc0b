#pragma once

#include <optional>
#include <string>

#include "core/plan.hpp"
#include "core/runtime.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace gnnerator::util {
class ThreadPool;
}  // namespace gnnerator::util

namespace gnnerator::core {

/// Result of one simulated inference.
struct ExecutionResult {
  std::uint64_t cycles = 0;
  /// Counters of the DRAM model and both engines, each exported once when
  /// the run ends, plus `cycles` and `tokens`.
  sim::StatSet stats;
  /// Present in functional mode: the network output [V x output_dim].
  std::optional<gnn::Tensor> output;
  /// Kernel-side accounting (outside `stats` so event-driven and reference
  /// runs of the same plan produce identical stat sets): simulated cycles
  /// actually ticked vs jumped over by the time-skipping kernel.
  std::uint64_t kernel_cycles_ticked = 0;
  std::uint64_t kernel_cycles_skipped = 0;

  /// Wall time at the configured clock.
  [[nodiscard]] double milliseconds(double clock_ghz) const {
    return static_cast<double>(cycles) / (clock_ghz * 1e6);
  }
};

/// Which simulation loop drives the cycle model. Results are bitwise
/// identical; the event-driven kernel is simply faster (it skips provably
/// dead cycles), while the reference loop is the differential-testing
/// ground truth.
enum class TimingKernel { kEventDriven, kReference };

/// The GNNerator instance (paper Fig. 2): Dense Engine + Graph Engine
/// sharing the feature-memory DRAM, coordinated by the GNNerator
/// Controller's token board (sim::SyncBoard). Instantiates the hardware
/// models from the plan's AcceleratorConfig, loads both engine programs, and
/// runs the cycle-level simulation to completion.
using ThreadPool = util::ThreadPool;

class Accelerator {
 public:
  /// Runs the plan. With a non-null `state` the functional program executes
  /// first (via the FunctionalExecutor, on `pool` if given, else serially)
  /// and the result carries the network output; the cycle simulation itself
  /// is always timing-only. `tracer`, if non-null, records pipeline events.
  /// This is the single orchestration path — the Engine delegates here.
  static ExecutionResult run(const LoweredModel& plan, RuntimeState* state,
                             sim::Tracer* tracer = nullptr, ThreadPool* pool = nullptr);

  /// The deterministic single-threaded cycle simulation, no arithmetic.
  static ExecutionResult run_timing(const LoweredModel& plan, sim::Tracer* tracer = nullptr,
                                    TimingKernel kernel = TimingKernel::kEventDriven);
};

}  // namespace gnnerator::core
