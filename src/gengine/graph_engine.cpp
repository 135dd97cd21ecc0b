#include "gengine/graph_engine.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gnnerator::gengine {

namespace {

constexpr std::string_view kStatPrefix = "graph.";
/// Indexed by GraphEngine::Stat.
constexpr std::string_view kStatNames[] = {
    "tasks_enqueued",    "tasks_completed", "edges_processed",  "lane_ops",
    "edge_dma_bytes",    "src_dma_bytes",   "dst_load_bytes",   "dst_write_bytes",
    "onchip_edge_bytes", "sram_read_bytes", "sram_write_bytes"};
/// Indexed by mem::PipelineStat.
constexpr std::string_view kPipelineStatNames[] = {
    "compute_cycles", "stall_dma_cycles", "stall_token_cycles", "busy_cycles",
    "gpe_idle_cycles"};

}  // namespace

GraphEngine::GraphEngine(GraphEngineConfig config, mem::DramModel& dram, sim::SyncBoard& sync,
                         sim::Tracer* tracer)
    : sim::Component("graph-engine"),
      config_(config),
      dram_(dram),
      edge_client_(dram.intern_client("graph.edge")),
      feat_client_(dram.intern_client("graph.feat")),
      wb_client_(dram.intern_client("graph.wb")),
      sync_(sync),
      tracer_(tracer),
      feature_bank_bytes_(config.feature_scratch_bytes / 2) {}

void GraphEngine::enqueue(ShardTask task) {
  GNNERATOR_CHECK_MSG(task.src_dma_bytes + task.dst_load_bytes <= feature_bank_bytes_,
                      "shard working set " << task.src_dma_bytes + task.dst_load_bytes
                                           << " B exceeds feature bank " << feature_bank_bytes_
                                           << " B");
  stats_.add(Stat::kTasksEnqueued);
  queue_.push_back(std::move(task));
}

void GraphEngine::tick(sim::Cycle now) {
  const bool was_busy = busy();
  drain_writebacks(now);

  if (computing_.has_value()) {
    pipeline_stats_.add(mem::PipelineStat::kComputeCycles);
    GNNERATOR_CHECK(compute_remaining_ > 0);
    if (--compute_remaining_ == 0) {
      finish_compute(now);
    }
  }
  try_start_compute(now);
  advance_fetch(now);

  if (was_busy) {
    pipeline_stats_.add(mem::PipelineStat::kBusyCycles);
    if (!computing_.has_value()) {
      pipeline_stats_.add(mem::PipelineStat::kIdleCycles);
    }
  }
}

void GraphEngine::finish_compute(sim::Cycle now) {
  ShardTask& task = *computing_;
  if (task.compute) {
    task.compute();  // functional Apply/Reduce arithmetic
  }
  stats_.add(Stat::kEdgesProcessed, task.num_edges);
  stats_.add(Stat::kLaneOps, task.lane_ops);
  stats_.add(Stat::kTasksCompleted);
  ++tasks_completed_;
  if (tracer_ != nullptr) {
    tracer_->emit(now, name(), "shard done tag=" + std::to_string(task.tag));
  }

  if (task.dst_write_bytes > 0) {
    const mem::DmaId dma = dram_.submit(mem::MemOp::kWrite, task.dst_write_bytes, wb_client_);
    stats_.add(Stat::kDstWriteBytes, task.dst_write_bytes);
    writebacks_.push_back(mem::Writeback{
        dma, task.signal_after_writeback ? task.produce_token : sim::kNoToken});
    if (!task.signal_after_writeback && task.produce_token != sim::kNoToken) {
      sync_.signal(task.produce_token);
    }
  } else if (task.produce_token != sim::kNoToken) {
    sync_.signal(task.produce_token);
  }
  computing_.reset();
}

void GraphEngine::try_start_compute(sim::Cycle now) {
  if (computing_.has_value() || !ready_.has_value()) {
    return;
  }
  computing_ = std::move(*ready_);
  ready_.reset();
  compute_remaining_ = std::max<std::uint64_t>(1, computing_->compute_cycles);
  if (computing_->onchip_edge_bytes > 0) {
    stats_.add(Stat::kOnchipEdgeBytes, computing_->onchip_edge_bytes);
  }
  // Compute-side SRAM reads: edge records plus one source-feature row read
  // per edge per block pass (apply) and one accumulator read-modify-write.
  const std::uint64_t edge_bytes =
      std::max(computing_->edge_dma_bytes, computing_->onchip_edge_bytes);
  stats_.add(Stat::kSramReadBytes, edge_bytes + 2 * computing_->lane_ops * sizeof(float));
  if (tracer_ != nullptr) {
    tracer_->emit(now, name(), "shard start tag=" + std::to_string(computing_->tag) +
                                   " cycles=" + std::to_string(compute_remaining_));
  }
}

void GraphEngine::advance_fetch(sim::Cycle now) {
  if (fetching_.has_value()) {
    bool all_done = true;
    for (const mem::DmaId dma : fetching_->dmas) {
      if (!dram_.is_complete(dma)) {
        all_done = false;
        break;
      }
    }
    if (all_done && !ready_.has_value()) {
      for (const mem::DmaId dma : fetching_->dmas) {
        dram_.collect(dma);
      }
      ready_ = std::move(fetching_->task);
      fetching_.reset();
      if (tracer_ != nullptr) {
        tracer_->emit(now, name(), "fetch done tag=" + std::to_string(ready_->tag));
      }
    } else if (!all_done && !computing_.has_value()) {
      pipeline_stats_.add(mem::PipelineStat::kStallDmaCycles);
    }
    return;
  }

  if (queue_.empty()) {
    return;
  }
  const ShardTask& head = queue_.front();
  if (!sync_.is_signaled(head.wait_token)) {
    if (!computing_.has_value() && !ready_.has_value()) {
      pipeline_stats_.add(mem::PipelineStat::kStallTokenCycles);
    }
    return;
  }
  InFlightFetch fetch;
  fetch.task = std::move(queue_.front());
  queue_.pop_front();
  // Shard Edge Fetch and Shard Feature Fetch units "work in parallel":
  // independent DMA streams on their own clients.
  fetch.dmas = {dram_.submit(mem::MemOp::kRead, fetch.task.edge_dma_bytes, edge_client_),
                dram_.submit(mem::MemOp::kRead, fetch.task.src_dma_bytes, feat_client_),
                dram_.submit(mem::MemOp::kRead, fetch.task.dst_load_bytes, feat_client_)};
  stats_.add(Stat::kEdgeDmaBytes, fetch.task.edge_dma_bytes);
  stats_.add(Stat::kSrcDmaBytes, fetch.task.src_dma_bytes);
  stats_.add(Stat::kDstLoadBytes, fetch.task.dst_load_bytes);
  stats_.add(Stat::kSramWriteBytes,
             fetch.task.edge_dma_bytes + fetch.task.src_dma_bytes + fetch.task.dst_load_bytes);
  if (tracer_ != nullptr) {
    tracer_->emit(now, name(), "fetch start tag=" + std::to_string(fetch.task.tag));
  }
  fetching_ = std::move(fetch);
}

mem::PipelineState GraphEngine::pipeline_state() const {
  mem::PipelineState state;
  state.dram = &dram_;
  state.busy = busy();
  state.computing = computing_.has_value();
  state.compute_remaining = compute_remaining_;
  state.ready = ready_.has_value();
  state.fetching = fetching_.has_value();
  if (fetching_.has_value()) {
    state.fetch_dmas = fetching_->dmas;
  }
  state.writebacks = writebacks_;
  state.queue_nonempty = !queue_.empty();
  if (state.queue_nonempty) {
    state.queue_token_signaled = sync_.is_signaled(queue_.front().wait_token);
  }
  return state;
}

sim::Cycle GraphEngine::next_event(sim::Cycle now) const {
  return mem::pipeline_next_event(pipeline_state(), now);
}

void GraphEngine::skip(sim::Cycle from, sim::Cycle to) {
  mem::pipeline_skip(pipeline_state(), from, to, pipeline_stats_, compute_remaining_);
}

void GraphEngine::drain_writebacks(sim::Cycle) {
  for (auto it = writebacks_.begin(); it != writebacks_.end();) {
    if (dram_.is_complete(it->dma)) {
      dram_.collect(it->dma);
      if (it->token != sim::kNoToken) {
        sync_.signal(it->token);
      }
      it = writebacks_.erase(it);
    } else {
      ++it;
    }
  }
}

void GraphEngine::export_stats(sim::StatSet& out) const {
  pipeline_stats_.export_to(out, kStatPrefix, kPipelineStatNames);
  stats_.export_to(out, kStatPrefix, kStatNames);
}

sim::StatSet GraphEngine::stats() const {
  sim::StatSet out;
  export_stats(out);
  return out;
}

bool GraphEngine::busy() const {
  return !queue_.empty() || fetching_.has_value() || ready_.has_value() ||
         computing_.has_value() || !writebacks_.empty();
}

}  // namespace gnnerator::gengine
