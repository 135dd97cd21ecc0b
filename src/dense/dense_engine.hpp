#pragma once

#include <cstdint>

#include "dense/gemm_op.hpp"
#include "dense/systolic.hpp"
#include "mem/dram.hpp"
#include "mem/pipeline_timing.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"
#include "sim/trace.hpp"
#include "util/units.hpp"

namespace gnnerator::dense {

/// Geometry and SRAM provisioning of the Dense Engine (paper §III-A,
/// Table IV: 8 TFLOPs and 6 MiB of scratchpad, split across input, weight
/// and output buffers, all double-buffered).
struct DenseEngineConfig {
  SystolicConfig array;
  std::uint64_t input_buffer_bytes = 2 * util::kMiB;   // total; bank = half
  std::uint64_t weight_buffer_bytes = 2 * util::kMiB;
  std::uint64_t output_buffer_bytes = 2 * util::kMiB;

  [[nodiscard]] std::uint64_t total_sram_bytes() const {
    return input_buffer_bytes + weight_buffer_bytes + output_buffer_bytes;
  }
  [[nodiscard]] std::uint64_t input_bank_bytes() const { return input_buffer_bytes / 2; }
  [[nodiscard]] std::uint64_t weight_bank_bytes() const { return weight_buffer_bytes / 2; }
  [[nodiscard]] std::uint64_t output_bank_bytes() const { return output_buffer_bytes / 2; }
};

/// Cycle-level model of the Dense Engine: GemmOps run in order through the
/// engines' shared fetch → compute → writeback pipeline (mem::EnginePipeline).
/// A fetch reads the A, W and psum-reload operands through the engine's own
/// memory controller (paper: needed for producer mode and psum reloads),
/// the systolic array is occupied per the SCALE-Sim tile formulas, and an
/// op's produce token fires once its result has landed.
class DenseEngine : public mem::EnginePipeline {
 public:
  DenseEngine(DenseEngineConfig config, mem::DramModel& dram, sim::SyncBoard& sync,
              sim::Tracer* tracer = nullptr);

  /// Checks the op fits the banks, counts its work and appends it.
  void enqueue(const GemmOp& op);

  [[nodiscard]] const DenseEngineConfig& config() const { return config_; }

  /// Adds every counter this engine touched to `out` as "dense.<name>".
  void export_stats(sim::StatSet& out) const;
  /// The same names and values, exported into a fresh set.
  [[nodiscard]] sim::StatSet stats() const;

 private:
  enum class Stat {
    kOpsEnqueued,
    kMacs,
    kABytes,
    kWBytes,
    kPsumReadBytes,
    kOutWriteBytes,
    kSramReadBytes,
    kSramWriteBytes,
    kCount
  };

  DenseEngineConfig config_;
  sim::Counters<Stat> stats_;
};

}  // namespace gnnerator::dense
