// Tests for the Graph Engine: GPE edge partitioning, shard compute timing,
// and the shard fetch/compute/writeback pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "gengine/gpe.hpp"
#include "gengine/graph_engine.hpp"
#include "graph/builder.hpp"
#include "mem/dram.hpp"
#include "sim/kernel.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"
#include "util/units.hpp"

namespace gnnerator::gengine {
namespace {

/// Edges sorted destination-major with the given per-destination degrees.
std::vector<graph::Edge> edges_with_degrees(const std::vector<std::uint32_t>& degrees) {
  std::vector<graph::Edge> edges;
  for (std::uint32_t dst = 0; dst < degrees.size(); ++dst) {
    for (std::uint32_t i = 0; i < degrees[dst]; ++i) {
      edges.push_back(graph::Edge{i, dst});
    }
  }
  return edges;
}

// ------------------------------------------------------------------- gpe --
TEST(Gpe, PartitionConservesEdges) {
  const auto edges = edges_with_degrees({3, 1, 4, 1, 5, 9, 2, 6});
  const auto counts = partition_edges_by_dst(edges, 4);
  EXPECT_LE(counts.size(), 4u);
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), edges.size());
}

TEST(Gpe, NeverSplitsADestinationGroup) {
  // One hub destination with 100 edges, others tiny: the hub must land in
  // one GPE even though it exceeds the balanced target.
  const auto edges = edges_with_degrees({100, 1, 1, 1});
  const auto counts = partition_edges_by_dst(edges, 4);
  EXPECT_GE(counts[0], 100u);
  EXPECT_EQ(max_gpe_edges(edges, 4), *std::max_element(counts.begin(), counts.end()));
}

TEST(Gpe, BalancedWhenDegreesAreUniform) {
  const auto edges = edges_with_degrees(std::vector<std::uint32_t>(64, 2));
  const auto counts = partition_edges_by_dst(edges, 8);
  ASSERT_EQ(counts.size(), 8u);
  for (const auto c : counts) {
    EXPECT_EQ(c, 16u);
  }
}

TEST(Gpe, EmptyEdgesHandled) {
  const std::vector<graph::Edge> none;
  EXPECT_TRUE(partition_edges_by_dst(none, 4).empty());
  EXPECT_EQ(max_gpe_edges(none, 4), 0u);
  EXPECT_EQ(shard_compute_cycles(none, GpeGeometry{4, 8}, 16), 0u);
}

TEST(Gpe, RequiresDstSortedInput) {
  const std::vector<graph::Edge> unsorted = {{0, 3}, {0, 1}};
  EXPECT_THROW(partition_edges_by_dst(unsorted, 2), util::CheckError);
  EXPECT_THROW((void)max_gpe_edges(unsorted, 2), util::CheckError);
}

TEST(Gpe, ComputeCyclesFormula) {
  // 8 dsts x 2 edges = 16 edges over 8 GPEs -> 2 edges each; block 16 dims
  // over 8 lanes -> 2 cycles/edge; max-GPE 4 cycles + 8 fill.
  const auto edges = edges_with_degrees(std::vector<std::uint32_t>(8, 2));
  EXPECT_EQ(shard_compute_cycles(edges, GpeGeometry{8, 8}, 16), 2u * 2 + 8);
}

TEST(Gpe, NarrowBlocksStillCostOneCyclePerEdge) {
  const auto edges = edges_with_degrees({4});
  // block 2 dims on 8 lanes: ceil -> 1 cycle per edge.
  EXPECT_EQ(shard_compute_cycles(edges, GpeGeometry{1, 8}, 2), 4u + 8);
}

TEST(Gpe, MoreGpesNeverSlower) {
  util::Prng prng(3);
  std::vector<std::uint32_t> degrees(128);
  for (auto& d : degrees) {
    d = static_cast<std::uint32_t>(1 + prng.uniform_u64(12));
  }
  const auto edges = edges_with_degrees(degrees);
  std::uint64_t prev = std::numeric_limits<std::uint64_t>::max();
  for (const std::uint32_t gpes : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const auto cycles = shard_compute_cycles(edges, GpeGeometry{gpes, 8}, 32);
    EXPECT_LE(cycles, prev);
    prev = cycles;
  }
}

TEST(Gpe, OpsPerCycleCountsApplyAndReduce) {
  EXPECT_EQ((GpeGeometry{32, 32}).ops_per_cycle(), 2048u);
}

// ---------------------------------------------------------------- engine --
struct EngineFixture {
  mem::DramModel dram{mem::DramModel::Config{256.0, 10, 64}};
  sim::SyncBoard sync;
  GraphEngineConfig config;
  EngineFixture() {
    config.geometry = GpeGeometry{4, 8};
    config.feature_scratch_bytes = 256 * util::kKiB;
    config.edge_buffer_bytes = 32 * util::kKiB;
  }
};

ShardTask simple_task(std::uint64_t compute_cycles = 50) {
  ShardTask task;
  task.edge_dma_bytes = 512;
  task.src_dma_bytes = 4096;
  task.num_edges = 64;
  task.compute_cycles = compute_cycles;
  return task;
}

sim::Cycle run_engine(EngineFixture& fx, GraphEngine& engine) {
  sim::SimKernel kernel;
  kernel.add(fx.dram);
  kernel.add(engine);
  return kernel.run();
}

TEST(GraphEngine, SingleTaskTiming) {
  EngineFixture fx;
  GraphEngine engine(fx.config, fx.dram, fx.sync);
  engine.enqueue(simple_task());
  const sim::Cycle cycles = run_engine(fx, engine);
  EXPECT_GE(cycles, 50u);   // at least the compute
  EXPECT_LE(cycles, 120u);  // fetch (18 grants + latency) + compute
  EXPECT_EQ(engine.completed(), 1u);
  EXPECT_EQ(engine.stats().get("graph.edges_processed"), 64u);
}

TEST(GraphEngine, PrefetchOverlapsCompute) {
  EngineFixture fx;
  GraphEngine solo(fx.config, fx.dram, fx.sync);
  solo.enqueue(simple_task(400));
  const sim::Cycle one = run_engine(fx, solo);

  EngineFixture fx2;
  GraphEngine engine(fx2.config, fx2.dram, fx2.sync);
  constexpr int kTasks = 8;
  for (int i = 0; i < kTasks; ++i) {
    engine.enqueue(simple_task(400));
  }
  const sim::Cycle many = run_engine(fx2, engine);
  EXPECT_LT(many, static_cast<sim::Cycle>(kTasks) * one);
  EXPECT_GE(many, static_cast<sim::Cycle>(kTasks) * 400u);
}

TEST(GraphEngine, StallsOnWaitToken) {
  EngineFixture fx;
  GraphEngine engine(fx.config, fx.dram, fx.sync);
  const sim::TokenId gate = fx.sync.create("z-block");
  ShardTask task = simple_task();
  task.wait_token = gate;
  engine.enqueue(task);
  for (sim::Cycle now = 0; now < 40; ++now) {
    fx.dram.tick(now);
    engine.tick(now);
  }
  EXPECT_TRUE(engine.busy());
  EXPECT_GT(engine.stats().get("graph.stall_token_cycles"), 0u);
  fx.sync.signal(gate);
  run_engine(fx, engine);
  EXPECT_EQ(engine.completed(), 1u);
}

TEST(GraphEngine, TokenAtComputeVsAfterWriteback) {
  // Compute-time signal: consumer may start while writeback drains.
  EngineFixture fx;
  GraphEngine engine(fx.config, fx.dram, fx.sync);
  const sim::TokenId at_compute = fx.sync.create("at-compute");
  ShardTask task = simple_task();
  task.dst_write_bytes = 64 * util::kKiB;  // long writeback
  task.produce_token = at_compute;
  task.signal_after_writeback = false;
  engine.enqueue(task);
  sim::Cycle signalled_at = 0;
  sim::Cycle now = 0;
  while (engine.busy()) {
    fx.dram.tick(now);
    engine.tick(now);
    if (signalled_at == 0 && fx.sync.is_signaled(at_compute)) {
      signalled_at = now;
    }
    ++now;
  }
  EXPECT_GT(signalled_at, 0u);
  EXPECT_LT(signalled_at + 100, now) << "token should fire well before writeback drains";
}

TEST(GraphEngine, WritebackTokenWaitsForDrain) {
  EngineFixture fx;
  GraphEngine engine(fx.config, fx.dram, fx.sync);
  const sim::TokenId after_wb = fx.sync.create("after-wb");
  ShardTask task = simple_task();
  task.dst_write_bytes = 64 * util::kKiB;
  task.produce_token = after_wb;
  task.signal_after_writeback = true;
  engine.enqueue(task);
  sim::Cycle compute_done = 0;
  sim::Cycle now = 0;
  for (;;) {
    fx.dram.tick(now);
    engine.tick(now);
    if (compute_done == 0 && engine.completed() == 1) {
      compute_done = now;
    }
    ++now;
    if (!engine.busy()) {
      break;  // the drain tick both completes the writeback and signals
    }
    EXPECT_FALSE(fx.sync.is_signaled(after_wb))
        << "must not signal while the writeback is still in flight (cycle " << now << ")";
    GNNERATOR_CHECK(now < 100000);
  }
  EXPECT_TRUE(fx.sync.is_signaled(after_wb));
  EXPECT_GT(now, compute_done + 100);
}

TEST(GraphEngine, OnChipEdgeRescansCounted) {
  EngineFixture fx;
  GraphEngine engine(fx.config, fx.dram, fx.sync);
  ShardTask task = simple_task();
  task.edge_dma_bytes = 0;
  task.onchip_edge_bytes = 2048;  // cached edge list rescan
  engine.enqueue(task);
  run_engine(fx, engine);
  EXPECT_EQ(engine.stats().get("graph.onchip_edge_bytes"), 2048u);
  EXPECT_EQ(engine.stats().get("graph.edge_dma_bytes"), 0u);
}

TEST(GraphEngine, RejectsOversizedWorkingSet) {
  EngineFixture fx;
  GraphEngine engine(fx.config, fx.dram, fx.sync);
  ShardTask task = simple_task();
  task.src_dma_bytes = fx.config.feature_scratch_bytes;  // > one bank
  EXPECT_THROW(engine.enqueue(task), util::CheckError);
}

}  // namespace
}  // namespace gnnerator::gengine
