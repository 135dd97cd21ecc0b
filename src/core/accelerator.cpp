#include "core/accelerator.hpp"

#include <sstream>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "dense/dense_engine.hpp"
#include "gengine/graph_engine.hpp"
#include "mem/dram.hpp"
#include "sim/kernel.hpp"
#include "sim/sync.hpp"
#include "util/check.hpp"

namespace gnnerator::core {

namespace {

/// "<n> pending tokens: <first eight names> ...", for a run that ended with
/// tokens no op signalled.
std::string pending_tokens(const sim::SyncBoard& board) {
  constexpr std::size_t kMaxNames = 8;
  const std::vector<std::string> pending = board.pending_names();
  std::ostringstream os;
  os << pending.size() << " pending tokens:";
  for (std::size_t i = 0; i < pending.size() && i < kMaxNames; ++i) {
    os << ' ' << pending[i];
  }
  if (pending.size() > kMaxNames) {
    os << " ...";
  }
  return os.str();
}

}  // namespace

ExecutionResult Accelerator::run(const LoweredModel& plan, RuntimeState* state,
                                 sim::Tracer* tracer, ThreadPool* pool) {
  plan.config.validate();  // fail before any functional work, not after
  if (state != nullptr) {
    // Functional arithmetic is decoupled from the cycle simulation: the
    // executor runs the plan's compute program up front (on the Engine's
    // pool when given), then the timing kernel runs without closures.
    // Each row band runs its phase's items in engine issue order, so
    // outputs are bit-identical to the old inline path and invariant to
    // the pool size.
    FunctionalExecutor(pool).execute(plan, *state);
  }
  ExecutionResult result = run_timing(plan, tracer);
  if (state != nullptr) {
    result.output = state->final_output();
  }
  return result;
}

ExecutionResult Accelerator::run_timing(const LoweredModel& plan, sim::Tracer* tracer,
                                        TimingKernel kernel_kind) {
  plan.config.validate();

  // The Controller's scoreboard: the compiler's token space, in order.
  sim::SyncBoard board;
  for (const std::string& name : plan.token_names) {
    board.create(name);
  }

  mem::DramModel dram(plan.config.dram);
  dense::DenseEngine dense_engine(plan.config.dense, dram, board, tracer);
  gengine::GraphEngine graph_engine(plan.config.graph, dram, board, tracer);
  for (const GemmWork& op : plan.dense_program) {
    dense_engine.enqueue(op);
  }
  for (const AggWork& task : plan.graph_program) {
    graph_engine.enqueue(task);
  }

  sim::SimKernel kernel;
  kernel.add(dram);          // memory first: grants visible to engines same-cycle
  kernel.add(graph_engine);  // producer before consumer for graph-first nets
  kernel.add(dense_engine);

  ExecutionResult result;
  result.cycles =
      kernel_kind == TimingKernel::kReference ? kernel.run_reference() : kernel.run();
  result.kernel_cycles_ticked = kernel.cycles_ticked();
  result.kernel_cycles_skipped = kernel.cycles_skipped();

  GNNERATOR_CHECK_MSG(board.num_signaled() == board.size(),
                      "simulation finished with " << pending_tokens(board));

  dram.export_stats(result.stats);
  dense_engine.export_stats(result.stats);
  graph_engine.export_stats(result.stats);
  result.stats.add("cycles", result.cycles);
  result.stats.add("tokens", board.size());
  return result;
}

}  // namespace gnnerator::core
