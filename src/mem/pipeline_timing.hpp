#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mem/dram.hpp"
#include "sim/kernel.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"
#include "sim/trace.hpp"

namespace gnnerator::mem {

/// Operand DMAs per fetch: both engines issue exactly three (dense: A, W,
/// psum reload; graph: edges, source features, destination reload).
inline constexpr std::size_t kFetchDmas = 3;

/// One op as the pipeline sees it: what to fetch, how long to compute, what
/// to write back, and which Controller tokens gate and follow it.
struct PipelineOp {
  std::array<std::uint64_t, kFetchDmas> fetch_bytes{};
  std::uint64_t compute_cycles = 0;  ///< > 0
  std::uint64_t writeback_bytes = 0;
  /// The op's fetch stalls until this token is signalled.
  sim::TokenId wait_token = sim::kNoToken;
  /// Signalled at compute completion, or once the writeback lands when
  /// `signal_after_writeback` is set and there are bytes to write back.
  sim::TokenId produce_token = sim::kNoToken;
  bool signal_after_writeback = false;
  std::uint32_t tag = 0;  ///< shown in traces
};

/// The counters the pipeline keeps. `kIdleCycles` counts busy cycles with
/// the compute unit idle; each engine exports the six under its own names
/// ("array_idle_cycles" / "gpe_idle_cycles", "ops_completed" /
/// "tasks_completed").
enum class PipelineStat {
  kComputeCycles,
  kStallDmaCycles,
  kStallTokenCycles,
  kBusyCycles,
  kIdleCycles,
  kCompleted,
  kCount
};
using PipelineCounters = sim::Counters<PipelineStat>;

/// The fetch → compute → writeback pipeline both engines run (paper §III):
/// an in-order queue of ops, each
///
///   FETCH      issuing its three operand DMAs through the engine's memory
///              controller once its wait token is signalled (the GNNerator
///              Controller holding the engine until the other engine has
///              produced what it reads),
///   READY      waiting for the compute unit once its operands landed,
///   COMPUTE    occupying the compute unit for a fixed number of cycles,
///   WRITEBACK  draining its result DMA in the background.
///
/// Double-buffered scratchpads let the fetch of op i+1 overlap the compute
/// of op i and the writeback of op i-1.
class EnginePipeline : public sim::Component {
 public:
  void tick(sim::Cycle now) override;
  [[nodiscard]] bool busy() const override;
  /// Earliest future cycle at which the pipeline, absent external input,
  /// changes visible state: the compute countdown reaching zero, a fetch or
  /// writeback DMA turning visible, a ready op starting, a token-unblocked
  /// op issuing. kNoEvent while stalled purely on a Controller token.
  [[nodiscard]] sim::Cycle next_event(sim::Cycle now) const override;
  /// Applies the countdown and busy/stall counters of the uneventful gap
  /// [from, to): exactly what that many ticks would have recorded.
  void skip(sim::Cycle from, sim::Cycle to) override;

  /// Ops whose compute finished (their writeback may still drain).
  [[nodiscard]] std::uint64_t completed() const {
    return counters_.get(PipelineStat::kCompleted);
  }

 protected:
  /// `unit` names a compute event in the trace ("gemm start tag=…");
  /// `fetch_clients` names the memory-controller client of each operand DMA.
  EnginePipeline(std::string name, std::string_view unit, DramModel& dram, sim::SyncBoard& sync,
                 sim::Tracer* tracer, const std::array<std::string_view, kFetchDmas>& fetch_clients,
                 std::string_view writeback_client);

  /// Appends an op; execution is strictly in order. Engines count an op's
  /// own work when they push it, not as it runs: a run's counters are
  /// exported once it ends, and it ends only after every op has completed.
  void push(const PipelineOp& op);

  [[nodiscard]] const PipelineCounters& pipeline_counters() const { return counters_; }

 private:
  struct Fetch {
    PipelineOp op;
    std::array<DmaId, kFetchDmas> dmas{};
  };
  /// A result DMA draining in the background, and the token it signals
  /// once it lands (kNoToken when nothing waits on it).
  struct Writeback {
    DmaId dma = kInvalidDma;
    sim::TokenId token = sim::kNoToken;
  };

  DramModel& dram_;
  sim::SyncBoard& sync_;
  sim::Tracer* tracer_;
  std::string unit_;
  std::array<DmaClient, kFetchDmas> fetch_clients_;
  DmaClient writeback_client_;
  PipelineCounters counters_;

  std::deque<PipelineOp> queue_;
  std::optional<Fetch> fetching_;
  std::optional<PipelineOp> ready_;
  std::optional<PipelineOp> computing_;
  std::uint64_t compute_remaining_ = 0;
  std::vector<Writeback> writebacks_;

  [[nodiscard]] bool fetch_landed() const;
  void finish_compute(sim::Cycle now);
  void advance_fetch(sim::Cycle now);
};

}  // namespace gnnerator::mem
