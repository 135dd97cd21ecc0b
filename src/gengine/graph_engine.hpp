#pragma once

#include <array>
#include <deque>
#include <optional>
#include <vector>

#include "gengine/gpe.hpp"
#include "gengine/shard_task.hpp"
#include "mem/dram.hpp"
#include "mem/pipeline_timing.hpp"
#include "sim/kernel.hpp"
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

/// Cycle-level model of the Graph Engine: an in-order queue of ShardTasks
/// flowing through the four units of the paper —
///
///   Shard Edge Fetch + Shard Feature Fetch   (parallel DMA; stalls on the
///       task's wait token: the Controller holding the Graph Engine until
///       the Dense Engine has produced the needed z block),
///   Shard Compute    (GPE array occupancy, precomputed per task),
///   Shard Writeback  (accumulator DMA draining in the background).
///
/// Double-buffered scratchpads let the fetch of shard i+1 overlap the
/// compute of shard i (paper: "the next shard is being prefetched while the
/// current shard is being executed").
class GraphEngine : public sim::Component {
 public:
  GraphEngine(GraphEngineConfig config, mem::DramModel& dram, sim::SyncBoard& sync,
              sim::Tracer* tracer = nullptr);

  void enqueue(ShardTask task);

  void tick(sim::Cycle now) override;
  [[nodiscard]] bool busy() const override;
  /// Event prediction and gap replay for the fetch/compute/writeback
  /// pipeline (shared logic: mem/pipeline_timing.hpp). kNoEvent while
  /// stalled purely on a controller token.
  [[nodiscard]] sim::Cycle next_event(sim::Cycle now) const override;
  void skip(sim::Cycle from, sim::Cycle to) override;

  [[nodiscard]] const GraphEngineConfig& config() const { return config_; }
  [[nodiscard]] std::uint64_t tasks_completed() const { return tasks_completed_; }

  /// Adds every counter this engine touched to `out` as "graph.<name>".
  void export_stats(sim::StatSet& out) const;
  /// The same names and values, exported into a fresh set.
  [[nodiscard]] sim::StatSet stats() const;

 private:
  enum class Stat {
    kTasksEnqueued,
    kTasksCompleted,
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

  struct InFlightFetch {
    ShardTask task;
    std::array<mem::DmaId, mem::kFetchDmas> dmas{};  ///< edges, sources, dst reload
  };

  GraphEngineConfig config_;
  mem::DramModel& dram_;
  mem::DmaClient edge_client_;
  mem::DmaClient feat_client_;
  mem::DmaClient wb_client_;
  sim::SyncBoard& sync_;
  sim::Tracer* tracer_;
  sim::Counters<Stat> stats_;
  mem::PipelineCounters pipeline_stats_;

  /// One bank of the double-buffered feature scratchpad: the most a
  /// shard's source and destination rows may occupy.
  std::uint64_t feature_bank_bytes_;

  std::deque<ShardTask> queue_;
  std::optional<InFlightFetch> fetching_;
  std::optional<ShardTask> ready_;
  std::optional<ShardTask> computing_;
  std::uint64_t compute_remaining_ = 0;
  std::vector<mem::Writeback> writebacks_;
  std::uint64_t tasks_completed_ = 0;

  void finish_compute(sim::Cycle now);
  void try_start_compute(sim::Cycle now);
  void advance_fetch(sim::Cycle now);
  void drain_writebacks(sim::Cycle now);
  [[nodiscard]] mem::PipelineState pipeline_state() const;
};

}  // namespace gnnerator::gengine
