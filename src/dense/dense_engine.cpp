#include "dense/dense_engine.hpp"

#include "util/check.hpp"

namespace gnnerator::dense {

namespace {

constexpr std::string_view kStatPrefix = "dense.";
/// Indexed by DenseEngine::Stat.
constexpr std::string_view kStatNames[] = {
    "ops_enqueued",    "macs",           "a_bytes",         "w_bytes",
    "psum_read_bytes", "out_write_bytes", "sram_read_bytes", "sram_write_bytes"};
/// Indexed by mem::PipelineStat.
constexpr std::string_view kPipelineStatNames[] = {
    "compute_cycles",    "stall_dma_cycles", "stall_token_cycles", "busy_cycles",
    "array_idle_cycles", "ops_completed"};

}  // namespace

DenseEngine::DenseEngine(DenseEngineConfig config, mem::DramModel& dram, sim::SyncBoard& sync,
                         sim::Tracer* tracer)
    : mem::EnginePipeline("dense-engine", "gemm", dram, sync, tracer, {"dense", "dense", "dense"},
                          "dense"),
      config_(config) {}

void DenseEngine::enqueue(const GemmOp& op) {
  GNNERATOR_CHECK_MSG(op.a_dma_bytes <= config_.input_bank_bytes(),
                      "GemmOp A tile " << op.a_dma_bytes << " B exceeds input bank "
                                       << config_.input_bank_bytes() << " B");
  GNNERATOR_CHECK_MSG(op.w_dma_bytes <= config_.weight_bank_bytes(),
                      "GemmOp W tile " << op.w_dma_bytes << " B exceeds weight bank "
                                       << config_.weight_bank_bytes() << " B");
  GNNERATOR_CHECK_MSG(op.psum_read_bytes + op.out_write_bytes <=
                          2 * config_.output_bank_bytes(),
                      "GemmOp psum traffic exceeds output buffer");
  const GemmShape& s = op.shape;
  stats_.add(Stat::kOpsEnqueued);
  stats_.add(Stat::kMacs, s.macs());
  stats_.add(Stat::kABytes, op.a_dma_bytes);
  stats_.add(Stat::kWBytes, op.w_dma_bytes);
  stats_.add(Stat::kPsumReadBytes, op.psum_read_bytes);
  if (op.out_write_bytes > 0) {
    stats_.add(Stat::kOutWriteBytes, op.out_write_bytes);
  }
  // The array reads both operand tiles; the buffers take the fetched tiles
  // and the result tile.
  stats_.add(Stat::kSramReadBytes, (s.m * s.k + s.k * s.n) * sizeof(float));
  stats_.add(Stat::kSramWriteBytes, op.a_dma_bytes + op.w_dma_bytes + s.m * s.n * sizeof(float));
  push(mem::PipelineOp{
      .fetch_bytes = {op.a_dma_bytes, op.w_dma_bytes, op.psum_read_bytes},
      .compute_cycles = gemm_cycles(config_.array, s),
      .writeback_bytes = op.out_write_bytes,
      .wait_token = op.wait_token,
      .produce_token = op.produce_token,
      .signal_after_writeback = true,
      .tag = op.tag,
  });
}

void DenseEngine::export_stats(sim::StatSet& out) const {
  pipeline_counters().export_to(out, kStatPrefix, kPipelineStatNames);
  stats_.export_to(out, kStatPrefix, kStatNames);
}

sim::StatSet DenseEngine::stats() const {
  sim::StatSet out;
  export_stats(out);
  return out;
}

}  // namespace gnnerator::dense
