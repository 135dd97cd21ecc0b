#include "mem/pipeline_timing.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gnnerator::mem {

sim::Cycle pipeline_next_event(const PipelineState& state, sim::Cycle now) {
  sim::Cycle event = sim::kNoEvent;
  const auto consider = [&](sim::Cycle cycle) {
    event = std::min(event, std::max(cycle, now + 1));
  };
  if (state.computing) {
    consider(now + state.compute_remaining);  // fixed-length occupancy
  } else if (state.ready) {
    consider(now + 1);  // ready op starts at the next tick
  }
  for (const Writeback& wb : state.writebacks) {
    const sim::Cycle visible = state.dram->complete_visible_at(wb.dma);
    consider(visible == sim::kNoEvent ? now + 1 : visible);
  }
  if (state.fetching) {
    sim::Cycle last_visible = 0;
    bool unknown = false;
    for (const DmaId dma : state.fetch_dmas) {
      const sim::Cycle visible = state.dram->complete_visible_at(dma);
      if (visible == sim::kNoEvent) {
        unknown = true;
        break;
      }
      last_visible = std::max(last_visible, visible);
    }
    if (unknown) {
      consider(now + 1);
    } else if (last_visible > now) {
      consider(last_visible);
    } else if (!state.ready) {
      consider(now + 1);  // complete and unblocked: promotes next tick
    }
    // Complete but blocked on the ready slot: the promotion rides the
    // compute-finish cascade already scheduled above.
  } else if (state.queue_nonempty && state.queue_token_signaled) {
    consider(now + 1);  // dependency met: the fetch issues at the next tick
  }
  return event;
}

void pipeline_skip(const PipelineState& state, sim::Cycle from, sim::Cycle to,
                   PipelineCounters& counters, std::uint64_t& compute_remaining) {
  GNNERATOR_CHECK(to > from);
  const std::uint64_t elapsed = to - from;
  // No event of this pipeline lies in [from, to): no DMA turns visible, no
  // compute finishes, no queue head issues — each replayed tick repeats the
  // same countdown/stall bookkeeping on frozen state.
  if (state.computing) {
    GNNERATOR_CHECK(compute_remaining > elapsed);
    compute_remaining -= elapsed;
    counters.add(PipelineStat::kComputeCycles, elapsed);
  } else if (state.fetching) {
    bool all_done = true;
    for (const DmaId dma : state.fetch_dmas) {
      if (!state.dram->is_complete(dma)) {
        all_done = false;
        break;
      }
    }
    if (!all_done) {
      counters.add(PipelineStat::kStallDmaCycles, elapsed);
    }
  } else if (state.queue_nonempty && !state.queue_token_signaled && !state.ready) {
    counters.add(PipelineStat::kStallTokenCycles, elapsed);
  }
  if (state.busy) {
    counters.add(PipelineStat::kBusyCycles, elapsed);
    if (!state.computing) {
      counters.add(PipelineStat::kIdleCycles, elapsed);
    }
  }
}

}  // namespace gnnerator::mem
