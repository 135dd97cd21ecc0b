#include "mem/pipeline_timing.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gnnerator::mem {

EnginePipeline::EnginePipeline(std::string name, std::string_view unit, DramModel& dram,
                               sim::SyncBoard& sync, sim::Tracer* tracer,
                               const std::array<std::string_view, kFetchDmas>& fetch_clients,
                               std::string_view writeback_client)
    : sim::Component(std::move(name)),
      dram_(dram),
      sync_(sync),
      tracer_(tracer),
      unit_(unit) {
  for (std::size_t i = 0; i < kFetchDmas; ++i) {
    fetch_clients_[i] = dram.intern_client(fetch_clients[i]);
  }
  writeback_client_ = dram.intern_client(writeback_client);
}

void EnginePipeline::push(const PipelineOp& op) {
  GNNERATOR_CHECK(op.compute_cycles > 0);
  queue_.push_back(op);
}

void EnginePipeline::tick(sim::Cycle now) {
  const bool was_busy = busy();

  // Writeback: each landed result DMA releases the token it carries.
  std::erase_if(writebacks_, [this](const Writeback& wb) {
    if (!dram_.is_complete(wb.dma)) {
      return false;
    }
    dram_.collect(wb.dma);
    if (wb.token != sim::kNoToken) {
      sync_.signal(wb.token);
    }
    return true;
  });

  if (computing_.has_value()) {
    counters_.add(PipelineStat::kComputeCycles);
    GNNERATOR_CHECK(compute_remaining_ > 0);
    if (--compute_remaining_ == 0) {
      finish_compute(now);
    }
  }
  if (!computing_.has_value() && ready_.has_value()) {
    computing_ = *ready_;
    ready_.reset();
    compute_remaining_ = computing_->compute_cycles;
    if (tracer_ != nullptr) {
      tracer_->emit(now, name(), unit_ + " start tag=" + std::to_string(computing_->tag) +
                                     " cycles=" + std::to_string(compute_remaining_));
    }
  }
  advance_fetch(now);

  if (was_busy) {
    counters_.add(PipelineStat::kBusyCycles);
    if (!computing_.has_value()) {
      counters_.add(PipelineStat::kIdleCycles);
    }
  }
}

void EnginePipeline::finish_compute(sim::Cycle now) {
  const PipelineOp& op = *computing_;
  counters_.add(PipelineStat::kCompleted);
  if (tracer_ != nullptr) {
    tracer_->emit(now, name(), unit_ + " done tag=" + std::to_string(op.tag));
  }
  // A result kept on-chip (shared scratchpad hand-off) releases its
  // consumer now; one the consumer reads from DRAM, once it lands.
  const bool signal_on_landing = op.writeback_bytes > 0 && op.signal_after_writeback;
  if (op.writeback_bytes > 0) {
    writebacks_.push_back(Writeback{
        dram_.submit(MemOp::kWrite, op.writeback_bytes, writeback_client_),
        signal_on_landing ? op.produce_token : sim::kNoToken});
  }
  if (!signal_on_landing && op.produce_token != sim::kNoToken) {
    sync_.signal(op.produce_token);
  }
  computing_.reset();
}

bool EnginePipeline::fetch_landed() const {
  return std::ranges::all_of(fetching_->dmas,
                             [this](DmaId dma) { return dram_.is_complete(dma); });
}

void EnginePipeline::advance_fetch(sim::Cycle now) {
  // Completion side: promote a landed fetch to the ready slot.
  if (fetching_.has_value()) {
    const bool landed = fetch_landed();
    if (landed && !ready_.has_value()) {
      for (const DmaId dma : fetching_->dmas) {
        dram_.collect(dma);
      }
      ready_ = fetching_->op;
      fetching_.reset();
      if (tracer_ != nullptr) {
        tracer_->emit(now, name(), "fetch done tag=" + std::to_string(ready_->tag));
      }
    } else if (!landed && !computing_.has_value()) {
      counters_.add(PipelineStat::kStallDmaCycles);
    }
    return;
  }

  // Issue side: start fetching the next op once its dependency is met.
  if (queue_.empty()) {
    return;
  }
  if (!sync_.is_signaled(queue_.front().wait_token)) {
    if (!computing_.has_value() && !ready_.has_value()) {
      counters_.add(PipelineStat::kStallTokenCycles);
    }
    return;
  }
  Fetch& fetch = fetching_.emplace(Fetch{queue_.front(), {}});
  queue_.pop_front();
  for (std::size_t i = 0; i < kFetchDmas; ++i) {
    fetch.dmas[i] = dram_.submit(MemOp::kRead, fetch.op.fetch_bytes[i], fetch_clients_[i]);
  }
  if (tracer_ != nullptr) {
    tracer_->emit(now, name(), "fetch start tag=" + std::to_string(fetch.op.tag));
  }
}

bool EnginePipeline::busy() const {
  return !queue_.empty() || fetching_.has_value() || ready_.has_value() ||
         computing_.has_value() || !writebacks_.empty();
}

sim::Cycle EnginePipeline::next_event(sim::Cycle now) const {
  sim::Cycle event = sim::kNoEvent;
  const auto consider = [&](sim::Cycle cycle) {
    event = std::min(event, std::max(cycle, now + 1));
  };
  if (computing_.has_value()) {
    consider(now + compute_remaining_);  // fixed-length occupancy
  } else if (ready_.has_value()) {
    consider(now + 1);  // ready op starts at the next tick
  }
  // The DRAM model predicts every transfer in closed form.
  for (const Writeback& wb : writebacks_) {
    consider(dram_.complete_visible_at(wb.dma));
  }
  if (fetching_.has_value()) {
    sim::Cycle last_visible = 0;
    for (const DmaId dma : fetching_->dmas) {
      last_visible = std::max(last_visible, dram_.complete_visible_at(dma));
    }
    if (last_visible > now) {
      consider(last_visible);
    } else if (!ready_.has_value()) {
      consider(now + 1);  // landed and unblocked: promotes next tick
    }
    // Landed but blocked on the ready slot: the promotion rides the
    // compute-finish cascade already considered above.
  } else if (!queue_.empty() && sync_.is_signaled(queue_.front().wait_token)) {
    consider(now + 1);  // dependency met: the fetch issues at the next tick
  }
  return event;
}

void EnginePipeline::skip(sim::Cycle from, sim::Cycle to) {
  GNNERATOR_CHECK(to > from);
  const std::uint64_t elapsed = to - from;
  // No event of this pipeline lies in [from, to): no DMA turns visible, no
  // compute finishes, no queue head issues — each replayed tick repeats the
  // same countdown/stall bookkeeping on frozen state.
  if (computing_.has_value()) {
    GNNERATOR_CHECK(compute_remaining_ > elapsed);
    compute_remaining_ -= elapsed;
    counters_.add(PipelineStat::kComputeCycles, elapsed);
  } else if (fetching_.has_value()) {
    if (!fetch_landed()) {
      counters_.add(PipelineStat::kStallDmaCycles, elapsed);
    }
  } else if (!queue_.empty() && !ready_.has_value() &&
             !sync_.is_signaled(queue_.front().wait_token)) {
    counters_.add(PipelineStat::kStallTokenCycles, elapsed);
  }
  if (busy()) {
    counters_.add(PipelineStat::kBusyCycles, elapsed);
    if (!computing_.has_value()) {
      counters_.add(PipelineStat::kIdleCycles, elapsed);
    }
  }
}

}  // namespace gnnerator::mem
