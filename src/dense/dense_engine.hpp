#pragma once

#include <array>
#include <deque>
#include <optional>
#include <vector>

#include "dense/gemm_op.hpp"
#include "dense/systolic.hpp"
#include "mem/dram.hpp"
#include "mem/pipeline_timing.hpp"
#include "sim/kernel.hpp"
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

/// Cycle-level model of the Dense Engine: an in-order queue of GemmOps
/// flowing through a three-stage pipeline —
///
///   FETCH    operand DMA for the next op (stalls on its wait token: this
///            is the GNNerator Controller holding the Dense Engine until
///            the Graph Engine has produced the needed column),
///   COMPUTE  systolic array occupancy per the SCALE-Sim tile formulas,
///   WRITEBACK result DMA draining in the background.
///
/// Because every buffer is double-buffered, the fetch of op i+1 overlaps
/// the compute of op i and the writeback of op i-1. The engine owns its own
/// memory controller (paper: needed for producer mode and psum reloads) —
/// modeled as its own client id on the shared DRAM.
class DenseEngine : public sim::Component {
 public:
  DenseEngine(DenseEngineConfig config, mem::DramModel& dram, sim::SyncBoard& sync,
              sim::Tracer* tracer = nullptr);

  /// Appends an op; execution is strictly in order.
  void enqueue(GemmOp op);

  void tick(sim::Cycle now) override;
  [[nodiscard]] bool busy() const override;
  /// Event prediction and gap replay for the fetch/compute/writeback
  /// pipeline (shared logic: mem/pipeline_timing.hpp). kNoEvent while
  /// stalled purely on a controller token.
  [[nodiscard]] sim::Cycle next_event(sim::Cycle now) const override;
  void skip(sim::Cycle from, sim::Cycle to) override;

  [[nodiscard]] const DenseEngineConfig& config() const { return config_; }

  /// Adds every counter this engine touched to `out` as "dense.<name>".
  void export_stats(sim::StatSet& out) const;
  /// The same names and values, exported into a fresh set.
  [[nodiscard]] sim::StatSet stats() const;

  /// Ops completed so far (compute finished; writeback may still drain).
  [[nodiscard]] std::uint64_t ops_completed() const { return ops_completed_; }

 private:
  enum class Stat {
    kOpsEnqueued,
    kOpsCompleted,
    kMacs,
    kABytes,
    kWBytes,
    kPsumReadBytes,
    kOutWriteBytes,
    kSramReadBytes,
    kSramWriteBytes,
    kCount
  };

  struct InFlightFetch {
    GemmOp op;
    std::array<mem::DmaId, mem::kFetchDmas> dmas{};  ///< A, W, psum reload
  };

  DenseEngineConfig config_;
  mem::DramModel& dram_;
  mem::DmaClient dma_client_;
  sim::SyncBoard& sync_;
  sim::Tracer* tracer_;
  sim::Counters<Stat> stats_;
  mem::PipelineCounters pipeline_stats_;

  std::deque<GemmOp> queue_;
  std::optional<InFlightFetch> fetching_;
  std::optional<GemmOp> ready_;
  std::optional<GemmOp> computing_;
  std::uint64_t compute_remaining_ = 0;
  std::vector<mem::Writeback> writebacks_;
  std::uint64_t ops_completed_ = 0;

  void finish_compute(sim::Cycle now);
  void try_start_compute(sim::Cycle now);
  void advance_fetch(sim::Cycle now);
  void drain_writebacks(sim::Cycle now);
  [[nodiscard]] mem::PipelineState pipeline_state() const;
};

}  // namespace gnnerator::dense
