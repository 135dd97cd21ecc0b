#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "mem/dram.hpp"
#include "sim/kernel.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"

namespace gnnerator::mem {

/// A result DMA draining in the background, and the token it signals once
/// it lands (kNoToken when nothing waits on it).
struct Writeback {
  DmaId dma = kInvalidDma;
  sim::TokenId token = sim::kNoToken;
};

/// Operand DMAs per fetch: both engines issue exactly three (dense: A, W,
/// psum reload; graph: edges, source features, destination reload).
inline constexpr std::size_t kFetchDmas = 3;

/// Snapshot of a fetch → compute → writeback engine pipeline, taken after a
/// tick. The Dense and Graph Engines share this exact pipeline shape, so
/// their next_event/skip logic lives here once instead of drifting apart in
/// two copies. It owns no storage: writebacks are viewed in place.
struct PipelineState {
  const DramModel* dram = nullptr;
  bool busy = false;
  bool computing = false;
  std::uint64_t compute_remaining = 0;  ///< valid while computing
  bool ready = false;                   ///< fetched op awaiting the array
  bool fetching = false;
  std::array<DmaId, kFetchDmas> fetch_dmas{};  ///< valid while fetching
  std::span<const Writeback> writebacks;       ///< draining result DMAs
  bool queue_nonempty = false;
  bool queue_token_signaled = false;  ///< head op's wait token, if queued
};

/// The counters every such pipeline keeps, bumped once per tick by its
/// engine and in bulk by pipeline_skip. `kIdleCycles` counts busy cycles
/// with the compute unit idle; each engine exports the five under its own
/// names ("array_idle_cycles" / "gpe_idle_cycles" for the idle one).
enum class PipelineStat {
  kComputeCycles,
  kStallDmaCycles,
  kStallTokenCycles,
  kBusyCycles,
  kIdleCycles,
  kCount
};
using PipelineCounters = sim::Counters<PipelineStat>;

/// Earliest future cycle at which the pipeline, absent external input,
/// changes externally visible state: the compute countdown reaching zero, a
/// fetch or writeback DMA turning visible, a ready op starting, a
/// token-unblocked op issuing. kNoEvent while stalled purely on a
/// controller token.
[[nodiscard]] sim::Cycle pipeline_next_event(const PipelineState& state, sim::Cycle now);

/// Bulk-applies the per-cycle compute countdown and busy/stall counters for
/// the uneventful gap [from, to): exactly what that many ticks would have
/// recorded on the frozen pipeline state. `compute_remaining` is
/// decremented in place while computing.
void pipeline_skip(const PipelineState& state, sim::Cycle from, sim::Cycle to,
                   PipelineCounters& counters, std::uint64_t& compute_remaining);

}  // namespace gnnerator::mem
