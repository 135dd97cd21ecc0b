#pragma once

#include "core/plan.hpp"
#include "core/runtime.hpp"
#include "util/thread_pool.hpp"

namespace gnnerator::core {

/// The worker pool lives in util (util/thread_pool.hpp) so the serving
/// pipeline can share it; this alias keeps the historical core:: spelling
/// working for the Engine and its tests.
using ThreadPool = util::ThreadPool;

/// Runs a plan's functional program — the tensor arithmetic only, no cycle
/// accounting — against a RuntimeState.
///
/// Work items are grouped into *phases*, one per (layer, stage) output
/// tensor, executed in stage order so every input tensor is complete before
/// a consumer reads it. An aggregation phase runs as one task per shard
/// visit that spans all of the stage's feature blocks: every block visits
/// the same shards in the same order with the same init_accumulator flags,
/// and execute() throws CheckError, naming the stage, for a plan whose
/// blocks do not. Within a phase, the V output rows are split into *row
/// bands*, a few per pool thread. Each band runs every item of the phase in
/// program order, clipped to its rows: a GEMM op to its row range, an
/// aggregation task to the destinations in the band. Bands write disjoint
/// rows and run concurrently.
///
/// Every output element therefore sees the operations of the serial
/// in-program-order, task-by-task execution in the same order, so the
/// output is bitwise identical to it for every pool size.
class FunctionalExecutor {
 public:
  /// `pool` == nullptr runs the whole program on the calling thread.
  explicit FunctionalExecutor(ThreadPool* pool = nullptr) : pool_(pool) {}

  void execute(const LoweredModel& plan, RuntimeState& state) const;

 private:
  ThreadPool* pool_;
};

}  // namespace gnnerator::core
