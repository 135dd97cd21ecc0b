#include "core/accelerator.hpp"

#include "core/executor.hpp"
#include "dense/dense_engine.hpp"
#include "gengine/graph_engine.hpp"
#include "mem/dram.hpp"
#include "sim/kernel.hpp"
#include "util/check.hpp"

namespace gnnerator::core {

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

  GnneratorController controller;
  // Recreate the compiler's token space, in order.
  for (const std::string& name : plan.token_names) {
    controller.board().create(name);
  }

  mem::DramModel dram(plan.config.dram);
  dense::DenseEngine dense_engine(plan.config.dense, dram, controller.board(), tracer);
  gengine::GraphEngine graph_engine(plan.config.graph, dram, controller.board(), tracer);

  for (const GemmWork& op : plan.dense_program) {
    dense::GemmOp hw;
    hw.shape = op.shape;
    hw.a_dma_bytes = op.a_dma_bytes;
    hw.w_dma_bytes = op.w_dma_bytes;
    hw.psum_read_bytes = op.psum_read_bytes;
    hw.out_write_bytes = op.out_write_bytes;
    hw.wait_token = op.wait_token;
    hw.produce_token = op.produce_token;
    hw.tag = op.tag;
    dense_engine.enqueue(std::move(hw));
  }
  for (const AggWork& task : plan.graph_program) {
    gengine::ShardTask hw;
    hw.edge_dma_bytes = task.edge_dma_bytes;
    hw.src_dma_bytes = task.src_dma_bytes;
    hw.dst_load_bytes = task.dst_load_bytes;
    hw.dst_write_bytes = task.dst_write_bytes;
    hw.onchip_edge_bytes = task.onchip_edge_bytes;
    hw.num_edges = task.num_edges;
    hw.compute_cycles = task.compute_cycles;
    hw.lane_ops = task.lane_ops;
    hw.wait_token = task.wait_token;
    hw.produce_token = task.produce_token;
    hw.signal_after_writeback = task.signal_after_writeback;
    hw.tag = task.tag;
    graph_engine.enqueue(std::move(hw));
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

  GNNERATOR_CHECK_MSG(controller.board().num_signaled() == controller.board().size(),
                      "simulation finished with " << controller.pending_summary());

  dram.export_stats(result.stats);
  dense_engine.export_stats(result.stats);
  graph_engine.export_stats(result.stats);
  result.stats.add("cycles", result.cycles);
  result.stats.add("tokens", controller.board().size());
  return result;
}

}  // namespace gnnerator::core
