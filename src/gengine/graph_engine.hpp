#pragma once

#include <cstdint>

#include "gengine/gpe.hpp"
#include "gengine/shard_task.hpp"
#include "mem/dram.hpp"
#include "mem/pipeline_timing.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"
#include "sim/trace.hpp"
#include "util/units.hpp"

namespace gnnerator::gengine {

/// Provisioning of the Graph Engine (paper §III-B, Table IV: 2 TFLOPs of
/// aggregation compute and 24 MiB of scratchpad).
struct GraphEngineConfig {
  GpeGeometry geometry;
  /// Feature scratchpad (source features + destination accumulators,
  /// double-buffered); the compiler's shard sizing must respect this.
  std::uint64_t feature_scratch_bytes = 23 * util::kMiB;
  /// Edge scratchpad: holds streamed shard edge chunks, or the whole edge
  /// list when it fits (enabling on-chip re-processing across blocks).
  std::uint64_t edge_buffer_bytes = 1 * util::kMiB;

  [[nodiscard]] std::uint64_t total_sram_bytes() const {
    return feature_scratch_bytes + edge_buffer_bytes;
  }
};

/// Cycle-level model of the Graph Engine: ShardTasks run in order through
/// the engines' shared fetch → compute → writeback pipeline
/// (mem::EnginePipeline), which maps onto the four units of the paper —
/// Shard Edge Fetch and Shard Feature Fetch (parallel DMA streams on their
/// own memory-controller clients), Shard Compute (GPE array occupancy,
/// precomputed per task) and Shard Writeback (accumulator DMA draining in
/// the background). The next shard is prefetched while the current one
/// executes.
class GraphEngine : public mem::EnginePipeline {
 public:
  GraphEngine(GraphEngineConfig config, mem::DramModel& dram, sim::SyncBoard& sync,
              sim::Tracer* tracer = nullptr);

  /// Checks the task fits a feature bank, counts its work and appends it.
  void enqueue(const ShardTask& task);

  [[nodiscard]] const GraphEngineConfig& config() const { return config_; }

  /// Adds every counter this engine touched to `out` as "graph.<name>".
  void export_stats(sim::StatSet& out) const;
  /// The same names and values, exported into a fresh set.
  [[nodiscard]] sim::StatSet stats() const;

 private:
  enum class Stat {
    kTasksEnqueued,
    kEdgesProcessed,
    kLaneOps,
    kEdgeDmaBytes,
    kSrcDmaBytes,
    kDstLoadBytes,
    kDstWriteBytes,
    kOnchipEdgeBytes,
    kSramReadBytes,
    kSramWriteBytes,
    kCount
  };

  GraphEngineConfig config_;
  sim::Counters<Stat> stats_;
};

}  // namespace gnnerator::gengine
