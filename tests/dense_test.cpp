// Tests for the Dense Engine: SCALE-Sim-style systolic timing formulas and
// the engine's fetch/compute/writeback pipeline with controller interlocks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dense/dense_engine.hpp"
#include "dense/systolic.hpp"
#include "mem/dram.hpp"
#include "sim/kernel.hpp"
#include "sim/sync.hpp"
#include "sim/trace.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace gnnerator::dense {
namespace {

SystolicConfig os_array(std::uint32_t r = 8, std::uint32_t c = 8) {
  return SystolicConfig{r, c, SystolicDataflow::kOutputStationary};
}
SystolicConfig ws_array(std::uint32_t r = 8, std::uint32_t c = 8) {
  return SystolicConfig{r, c, SystolicDataflow::kWeightStationary};
}

// -------------------------------------------------------------- systolic --
TEST(Systolic, OutputStationaryTileFormula) {
  // K + rows + cols - 2.
  EXPECT_EQ(tile_cycles(os_array(), 8, 8, 100), 100u + 8 + 8 - 2);
  EXPECT_EQ(tile_cycles(os_array(), 1, 1, 1), 1u);
}

TEST(Systolic, WeightStationaryTileFormula) {
  // rows (preload) + M + rows + cols - 2, with M passed as k.
  EXPECT_EQ(tile_cycles(ws_array(), 8, 8, 100), 8u + 100 + 8 + 8 - 2);
}

TEST(Systolic, OsGemmTilesOverOutputs) {
  // 16x10x16 on an 8x8 OS array: 2x2 output tiles, each K=10 deep.
  const GemmShape shape{16, 10, 16};
  EXPECT_EQ(gemm_cycles(os_array(), shape), 4 * (10u + 8 + 8 - 2));
}

TEST(Systolic, WsGemmTilesOverWeights) {
  // 100x16x8 on an 8x8 WS array: 2 K-tiles x 1 N-tile, each streaming 100.
  const GemmShape shape{100, 16, 8};
  EXPECT_EQ(gemm_cycles(ws_array(), shape), 2 * (8u + 100 + 8 + 8 - 2));
}

TEST(Systolic, PartialTilesUseReducedFillDrain) {
  // 4x10x4 on an 8x8 OS array: one partial tile.
  EXPECT_EQ(gemm_cycles(os_array(), GemmShape{4, 10, 4}), 10u + 4 + 4 - 2);
}

TEST(Systolic, NarrowKUnderutilizesWsArray) {
  // The Fig. 4 B=32 effect: K = half the array rows wastes half the PEs, so
  // half the MACs take nearly as many cycles.
  const auto cfg = ws_array(64, 64);
  const std::uint64_t full = gemm_cycles(cfg, GemmShape{4096, 64, 64});
  const std::uint64_t half = gemm_cycles(cfg, GemmShape{4096, 32, 64});
  EXPECT_LE(half, full);
  EXPECT_GT(static_cast<double>(half), 0.95 * static_cast<double>(full));
}

TEST(Systolic, CyclesNeverBeatPeakMacRate) {
  for (const auto& cfg : {os_array(), ws_array()}) {
    for (const GemmShape shape :
         {GemmShape{1, 1, 1}, GemmShape{64, 64, 64}, GemmShape{1000, 3, 5}}) {
      const std::uint64_t cycles = gemm_cycles(cfg, shape);
      EXPECT_GT(cycles, 0u);
      EXPECT_GE(cycles * cfg.macs_per_cycle(), shape.macs());
    }
  }
}

TEST(Systolic, DegenerateShapesRejected) {
  EXPECT_THROW((void)gemm_cycles(os_array(), GemmShape{0, 1, 1}), util::CheckError);
  EXPECT_THROW((void)tile_cycles(os_array(), 0, 1, 1), util::CheckError);
  EXPECT_THROW((void)tile_cycles(os_array(), 9, 1, 1), util::CheckError);  // > rows
}

// ---------------------------------------------------------------- engine --
struct EngineFixture {
  mem::DramModel dram{mem::DramModel::Config{256.0, 10, 64}};
  sim::SyncBoard sync;
  DenseEngineConfig config;
  EngineFixture() {
    config.array = ws_array(8, 8);
    config.input_buffer_bytes = 64 * util::kKiB;
    config.weight_buffer_bytes = 64 * util::kKiB;
    config.output_buffer_bytes = 64 * util::kKiB;
  }
};

GemmOp simple_op(std::uint64_t m = 32, std::uint64_t k = 8, std::uint64_t n = 8) {
  GemmOp op;
  op.shape = GemmShape{m, k, n};
  op.a_dma_bytes = m * k * 4;
  op.w_dma_bytes = k * n * 4;
  return op;
}

sim::Cycle run_engine(EngineFixture& fx, DenseEngine& engine) {
  sim::SimKernel kernel;
  kernel.add(fx.dram);
  kernel.add(engine);
  return kernel.run();
}

TEST(DenseEngine, SingleOpFetchComputeTiming) {
  EngineFixture fx;
  DenseEngine engine(fx.config, fx.dram, fx.sync);
  engine.enqueue(simple_op());
  const sim::Cycle cycles = run_engine(fx, engine);
  // Fetch: (1024 + 256) B -> >= 5 grant cycles + 10 latency; compute:
  // 8 + 32 + 8 + 8 - 2 = 54. Sequential lower bound ~69, generous upper.
  EXPECT_GE(cycles, 54u);
  EXPECT_LE(cycles, 120u);
  EXPECT_EQ(engine.completed(), 1u);
  EXPECT_EQ(engine.stats().get("dense.macs"), 32u * 8 * 8);
}

TEST(DenseEngine, DoubleBufferingOverlapsFetchAndCompute) {
  // N identical ops: with fetch/compute overlap, total << N * single.
  EngineFixture fx;
  DenseEngine single_engine(fx.config, fx.dram, fx.sync);
  single_engine.enqueue(simple_op(512, 8, 8));
  const sim::Cycle one = run_engine(fx, single_engine);

  EngineFixture fx2;
  DenseEngine engine(fx2.config, fx2.dram, fx2.sync);
  constexpr int kOps = 8;
  for (int i = 0; i < kOps; ++i) {
    engine.enqueue(simple_op(512, 8, 8));
  }
  const sim::Cycle many = run_engine(fx2, engine);
  // Compute per op dominates (534 cycles vs ~74 fetch): the pipeline should
  // approach kOps * compute, well under kOps * (fetch + compute).
  EXPECT_LT(many, static_cast<sim::Cycle>(kOps) * one);
  EXPECT_GE(many, static_cast<sim::Cycle>(kOps) * 534u);
}

TEST(DenseEngine, StallsOnWaitToken) {
  EngineFixture fx;
  DenseEngine engine(fx.config, fx.dram, fx.sync);
  const sim::TokenId token = fx.sync.create("gate");

  GemmOp gated = simple_op();
  gated.wait_token = token;
  engine.enqueue(gated);

  // Tick without signalling: no progress beyond stall accounting.
  for (sim::Cycle now = 0; now < 50; ++now) {
    fx.dram.tick(now);
    engine.tick(now);
  }
  EXPECT_EQ(engine.completed(), 0u);
  EXPECT_GT(engine.stats().get("dense.stall_token_cycles"), 0u);
  EXPECT_TRUE(engine.busy());

  fx.sync.signal(token);
  sim::SimKernel kernel;
  kernel.add(fx.dram);
  kernel.add(engine);
  kernel.run();
  EXPECT_EQ(engine.completed(), 1u);
}

TEST(DenseEngine, SignalsProduceTokenAfterWriteback) {
  EngineFixture fx;
  DenseEngine engine(fx.config, fx.dram, fx.sync);
  const sim::TokenId produced = fx.sync.create("out");
  GemmOp op = simple_op();
  op.out_write_bytes = 1024;
  op.produce_token = produced;
  engine.enqueue(op);
  run_engine(fx, engine);
  EXPECT_TRUE(fx.sync.is_signaled(produced));
}

TEST(DenseEngine, SignalsImmediatelyWithoutWriteback) {
  EngineFixture fx;
  DenseEngine engine(fx.config, fx.dram, fx.sync);
  const sim::TokenId produced = fx.sync.create("out");
  GemmOp op = simple_op();
  op.out_write_bytes = 0;
  op.produce_token = produced;
  engine.enqueue(op);
  run_engine(fx, engine);
  EXPECT_TRUE(fx.sync.is_signaled(produced));
}

TEST(DenseEngine, InOrderExecution) {
  EngineFixture fx;
  sim::Tracer tracer;
  tracer.enable();
  DenseEngine engine(fx.config, fx.dram, fx.sync, &tracer);
  for (std::uint32_t i = 0; i < 4; ++i) {
    GemmOp op = simple_op();
    op.tag = i;
    engine.enqueue(op);
  }
  run_engine(fx, engine);
  std::vector<std::string> done;
  for (const sim::TraceEvent& e : tracer.events()) {
    if (e.what.starts_with("gemm done")) {
      done.push_back(e.what);
    }
  }
  EXPECT_EQ(done, (std::vector<std::string>{"gemm done tag=0", "gemm done tag=1",
                                            "gemm done tag=2", "gemm done tag=3"}));
}

TEST(DenseEngine, RejectsOversizedOperands) {
  EngineFixture fx;
  DenseEngine engine(fx.config, fx.dram, fx.sync);
  GemmOp op = simple_op();
  op.a_dma_bytes = fx.config.input_bank_bytes() + 1;
  EXPECT_THROW(engine.enqueue(op), util::CheckError);
  GemmOp op2 = simple_op();
  op2.w_dma_bytes = fx.config.weight_bank_bytes() + 1;
  EXPECT_THROW(engine.enqueue(op2), util::CheckError);
}

}  // namespace
}  // namespace gnnerator::dense
