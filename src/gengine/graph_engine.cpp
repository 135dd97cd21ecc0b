#include "gengine/graph_engine.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gnnerator::gengine {

namespace {

constexpr std::string_view kStatPrefix = "graph.";
/// Indexed by GraphEngine::Stat.
constexpr std::string_view kStatNames[] = {
    "tasks_enqueued",  "edges_processed",   "lane_ops",        "edge_dma_bytes",
    "src_dma_bytes",   "dst_load_bytes",    "dst_write_bytes", "onchip_edge_bytes",
    "sram_read_bytes", "sram_write_bytes"};
/// Indexed by mem::PipelineStat.
constexpr std::string_view kPipelineStatNames[] = {
    "compute_cycles",  "stall_dma_cycles", "stall_token_cycles", "busy_cycles",
    "gpe_idle_cycles", "tasks_completed"};

}  // namespace

GraphEngine::GraphEngine(GraphEngineConfig config, mem::DramModel& dram, sim::SyncBoard& sync,
                         sim::Tracer* tracer)
    : mem::EnginePipeline("graph-engine", "shard", dram, sync, tracer,
                          {"graph.edge", "graph.feat", "graph.feat"}, "graph.wb"),
      config_(config) {}

void GraphEngine::enqueue(const ShardTask& task) {
  // One bank of the double-buffered feature scratchpad: the most a shard's
  // source and destination rows may occupy.
  const std::uint64_t feature_bank_bytes = config_.feature_scratch_bytes / 2;
  GNNERATOR_CHECK_MSG(task.src_dma_bytes + task.dst_load_bytes <= feature_bank_bytes,
                      "shard working set " << task.src_dma_bytes + task.dst_load_bytes
                                           << " B exceeds feature bank " << feature_bank_bytes
                                           << " B");
  stats_.add(Stat::kTasksEnqueued);
  stats_.add(Stat::kEdgesProcessed, task.num_edges);
  stats_.add(Stat::kLaneOps, task.lane_ops);
  stats_.add(Stat::kEdgeDmaBytes, task.edge_dma_bytes);
  stats_.add(Stat::kSrcDmaBytes, task.src_dma_bytes);
  stats_.add(Stat::kDstLoadBytes, task.dst_load_bytes);
  if (task.dst_write_bytes > 0) {
    stats_.add(Stat::kDstWriteBytes, task.dst_write_bytes);
  }
  if (task.onchip_edge_bytes > 0) {
    stats_.add(Stat::kOnchipEdgeBytes, task.onchip_edge_bytes);
  }
  // Compute-side SRAM reads: edge records plus one source-feature row read
  // per edge per block pass (apply) and one accumulator read-modify-write.
  const std::uint64_t edge_bytes = std::max(task.edge_dma_bytes, task.onchip_edge_bytes);
  stats_.add(Stat::kSramReadBytes, edge_bytes + 2 * task.lane_ops * sizeof(float));
  stats_.add(Stat::kSramWriteBytes,
             task.edge_dma_bytes + task.src_dma_bytes + task.dst_load_bytes);
  push(mem::PipelineOp{
      .fetch_bytes = {task.edge_dma_bytes, task.src_dma_bytes, task.dst_load_bytes},
      .compute_cycles = std::max<std::uint64_t>(1, task.compute_cycles),
      .writeback_bytes = task.dst_write_bytes,
      .wait_token = task.wait_token,
      .produce_token = task.produce_token,
      .signal_after_writeback = task.signal_after_writeback,
      .tag = task.tag,
  });
}

void GraphEngine::export_stats(sim::StatSet& out) const {
  pipeline_counters().export_to(out, kStatPrefix, kPipelineStatNames);
  stats_.export_to(out, kStatPrefix, kStatNames);
}

sim::StatSet GraphEngine::stats() const {
  sim::StatSet out;
  export_stats(out);
  return out;
}

}  // namespace gnnerator::gengine
