#include "dense/dense_engine.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gnnerator::dense {

namespace {

constexpr std::string_view kStatPrefix = "dense.";
/// Indexed by DenseEngine::Stat.
constexpr std::string_view kStatNames[] = {
    "ops_enqueued",    "ops_completed",   "macs",
    "a_bytes",         "w_bytes",         "psum_read_bytes",
    "out_write_bytes", "sram_read_bytes", "sram_write_bytes"};
/// Indexed by mem::PipelineStat.
constexpr std::string_view kPipelineStatNames[] = {
    "compute_cycles", "stall_dma_cycles", "stall_token_cycles", "busy_cycles",
    "array_idle_cycles"};

}  // namespace

DenseEngine::DenseEngine(DenseEngineConfig config, mem::DramModel& dram, sim::SyncBoard& sync,
                         sim::Tracer* tracer)
    : sim::Component("dense-engine"),
      config_(config),
      dram_(dram),
      dma_client_(dram.intern_client("dense")),
      sync_(sync),
      tracer_(tracer) {}

void DenseEngine::enqueue(GemmOp op) {
  GNNERATOR_CHECK_MSG(op.a_dma_bytes <= config_.input_bank_bytes(),
                      "GemmOp A tile " << op.a_dma_bytes << " B exceeds input bank "
                                       << config_.input_bank_bytes() << " B");
  GNNERATOR_CHECK_MSG(op.w_dma_bytes <= config_.weight_bank_bytes(),
                      "GemmOp W tile " << op.w_dma_bytes << " B exceeds weight bank "
                                       << config_.weight_bank_bytes() << " B");
  GNNERATOR_CHECK_MSG(op.psum_read_bytes + op.out_write_bytes <=
                          2 * config_.output_bank_bytes(),
                      "GemmOp psum traffic exceeds output buffer");
  stats_.add(Stat::kOpsEnqueued);
  queue_.push_back(std::move(op));
}

void DenseEngine::tick(sim::Cycle now) {
  const bool was_busy = busy();
  drain_writebacks(now);

  // Compute stage.
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

void DenseEngine::finish_compute(sim::Cycle now) {
  GemmOp& op = *computing_;
  if (op.compute) {
    op.compute();  // functional payload (GEMM arithmetic + activation)
  }
  stats_.add(Stat::kMacs, op.shape.macs());
  stats_.add(Stat::kOpsCompleted);
  ++ops_completed_;
  if (tracer_ != nullptr) {
    tracer_->emit(now, name(), "gemm done tag=" + std::to_string(op.tag));
  }

  stats_.add(Stat::kSramWriteBytes, op.shape.m * op.shape.n * sizeof(float));
  if (op.out_write_bytes > 0) {
    stats_.add(Stat::kOutWriteBytes, op.out_write_bytes);
    const mem::DmaId dma = dram_.submit(mem::MemOp::kWrite, op.out_write_bytes, dma_client_);
    writebacks_.push_back(mem::Writeback{dma, op.produce_token});
  } else if (op.produce_token != sim::kNoToken) {
    // Result stays on-chip (shared scratchpad hand-off): consumer may start
    // immediately.
    sync_.signal(op.produce_token);
  }
  computing_.reset();
}

void DenseEngine::try_start_compute(sim::Cycle now) {
  if (computing_.has_value() || !ready_.has_value()) {
    return;
  }
  computing_ = std::move(*ready_);
  ready_.reset();
  compute_remaining_ = gemm_cycles(config_.array, computing_->shape);
  stats_.add(Stat::kSramReadBytes,
             (computing_->shape.m * computing_->shape.k + computing_->shape.k * computing_->shape.n) *
                 sizeof(float));
  if (tracer_ != nullptr) {
    tracer_->emit(now, name(), "gemm start tag=" + std::to_string(computing_->tag) + " cycles=" +
                                   std::to_string(compute_remaining_));
  }
}

void DenseEngine::advance_fetch(sim::Cycle now) {
  // Completion side: promote a finished fetch to the ready slot.
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
      ready_ = std::move(fetching_->op);
      fetching_.reset();
      if (tracer_ != nullptr) {
        tracer_->emit(now, name(), "fetch done tag=" + std::to_string(ready_->tag));
      }
    } else if (!all_done && !computing_.has_value()) {
      pipeline_stats_.add(mem::PipelineStat::kStallDmaCycles);
    }
    return;
  }

  // Issue side: start fetching the next op if its dependency is met.
  if (queue_.empty()) {
    return;
  }
  const GemmOp& head = queue_.front();
  if (!sync_.is_signaled(head.wait_token)) {
    if (!computing_.has_value() && !ready_.has_value()) {
      pipeline_stats_.add(mem::PipelineStat::kStallTokenCycles);
    }
    return;
  }
  InFlightFetch fetch;
  fetch.op = std::move(queue_.front());
  queue_.pop_front();
  fetch.dmas = {dram_.submit(mem::MemOp::kRead, fetch.op.a_dma_bytes, dma_client_),
                dram_.submit(mem::MemOp::kRead, fetch.op.w_dma_bytes, dma_client_),
                dram_.submit(mem::MemOp::kRead, fetch.op.psum_read_bytes, dma_client_)};
  stats_.add(Stat::kSramWriteBytes, fetch.op.a_dma_bytes + fetch.op.w_dma_bytes);
  stats_.add(Stat::kABytes, fetch.op.a_dma_bytes);
  stats_.add(Stat::kWBytes, fetch.op.w_dma_bytes);
  stats_.add(Stat::kPsumReadBytes, fetch.op.psum_read_bytes);
  if (tracer_ != nullptr) {
    tracer_->emit(now, name(), "fetch start tag=" + std::to_string(fetch.op.tag));
  }
  fetching_ = std::move(fetch);
}

mem::PipelineState DenseEngine::pipeline_state() const {
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

sim::Cycle DenseEngine::next_event(sim::Cycle now) const {
  return mem::pipeline_next_event(pipeline_state(), now);
}

void DenseEngine::skip(sim::Cycle from, sim::Cycle to) {
  mem::pipeline_skip(pipeline_state(), from, to, pipeline_stats_, compute_remaining_);
}

void DenseEngine::drain_writebacks(sim::Cycle) {
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

void DenseEngine::export_stats(sim::StatSet& out) const {
  pipeline_stats_.export_to(out, kStatPrefix, kPipelineStatNames);
  stats_.export_to(out, kStatPrefix, kStatNames);
}

sim::StatSet DenseEngine::stats() const {
  sim::StatSet out;
  export_stats(out);
  return out;
}

bool DenseEngine::busy() const {
  return !queue_.empty() || fetching_.has_value() || ready_.has_value() ||
         computing_.has_value() || !writebacks_.empty();
}

}  // namespace gnnerator::dense
