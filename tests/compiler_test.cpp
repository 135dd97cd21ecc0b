// Tests for the compiler: plan validity invariants. These inspect the
// LoweredModel as pure data — no simulation — and pin the paper's dataflow
// decisions (block sizes, shard sizing, traversal choice, token wiring,
// work conservation).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/compiler.hpp"
#include "core/compiler/artifacts.hpp"
#include "core/gnnerator.hpp"
#include "graph/generate.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"
#include "util/units.hpp"

namespace gnnerator::core {
namespace {

graph::Graph test_graph(std::uint64_t seed = 1, graph::NodeId n = 150, std::size_t e = 900) {
  util::Prng prng(seed);
  return graph::symmetrized(graph::power_law(n, e, 1.6, prng));
}

AcceleratorConfig tiny_config() {
  AcceleratorConfig c = AcceleratorConfig::table4();
  c.graph.feature_scratch_bytes = 128 * util::kKiB;
  c.graph.edge_buffer_bytes = 16 * util::kKiB;
  c.dense.input_buffer_bytes = 128 * util::kKiB;
  c.dense.weight_buffer_bytes = 128 * util::kKiB;
  c.dense.output_buffer_bytes = 128 * util::kKiB;
  c.dense.array.rows = 16;
  c.dense.array.cols = 16;
  return c;
}

/// Expected MAC count of a model over V nodes (all GEMM stages).
std::uint64_t expected_macs(const gnn::ModelSpec& model, std::uint64_t v) {
  std::uint64_t macs = 0;
  for (const auto& layer : model.layers) {
    for (const auto& stage : gnn::layer_stages(layer)) {
      if (stage.kind == gnn::StageSpec::Kind::kDense) {
        macs += v * stage.in_dim * stage.out_dim;
      }
    }
  }
  return macs;
}

TEST(Compiler, TotalMacsConserved) {
  const auto g = test_graph();
  for (const auto kind :
       {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
    gnn::ModelSpec model;
    switch (kind) {
      case gnn::LayerKind::kGcn:
        model = gnn::ModelSpec::gcn(48, 12, 5);
        break;
      case gnn::LayerKind::kSageMean:
        model = gnn::ModelSpec::graphsage(48, 12, 5);
        break;
      case gnn::LayerKind::kSagePool:
        model = gnn::ModelSpec::graphsage_pool(48, 12, 5);
        break;
    }
    const LoweredModel plan = compile_model(g, model, tiny_config(), DataflowOptions{});
    EXPECT_EQ(plan.total_macs, expected_macs(model, g.num_nodes()))
        << "for " << gnn::layer_kind_name(kind);
  }
}

TEST(Compiler, EdgeVisitsAreEdgesTimesBlocks) {
  const auto g = test_graph();
  const auto model = gnn::ModelSpec::gcn(48, 12, 5);
  DataflowOptions options;
  options.block_size = 16;
  const LoweredModel plan = compile_model(g, model, tiny_config(), options);
  // Layer 0: ceil(48/16)=3 blocks; layer 1: ceil(12/16)=1 block; the
  // aggregation graph has V self loops added.
  const std::uint64_t e_aug = g.num_edges() + g.num_nodes();
  EXPECT_EQ(plan.total_edge_visits, e_aug * 3 + e_aug * 1);
}

TEST(Compiler, BlocksCoverAllDimensions) {
  const auto g = test_graph();
  const auto model = gnn::ModelSpec::graphsage(50, 10, 4);  // 50 not divisible by 16
  DataflowOptions options;
  options.block_size = 16;
  const LoweredModel plan = compile_model(g, model, tiny_config(), options);
  for (const AggStagePlan& stage : plan.agg_stages) {
    std::vector<bool> covered(stage.dims, false);
    for (const AggWork& task : plan.graph_program) {
      if (task.agg_stage != (&stage - plan.agg_stages.data())) {
        continue;
      }
      for (std::uint32_t d = task.d_begin; d < task.d_end; ++d) {
        covered[d] = true;
      }
    }
    for (std::size_t d = 0; d < stage.dims; ++d) {
      EXPECT_TRUE(covered[d]) << "dimension " << d << " never aggregated";
    }
  }
}

TEST(Compiler, EveryNonEmptyShardVisitedPerBlock) {
  const auto g = test_graph();
  const auto model = gnn::ModelSpec::gcn(48, 12, 5);
  DataflowOptions options;
  options.block_size = 16;
  const LoweredModel plan = compile_model(g, model, tiny_config(), options);
  for (std::size_t si = 0; si < plan.agg_stages.size(); ++si) {
    const AggStagePlan& stage = plan.agg_stages[si];
    // Count visits per (block, coord).
    std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>, int> visits;
    for (const AggWork& task : plan.graph_program) {
      if (task.agg_stage != si) {
        continue;
      }
      ++visits[std::make_tuple(task.d_begin, task.coord.row, task.coord.col)];
    }
    const std::uint32_t S = stage.sizing.grid_dim;
    for (std::uint32_t b = 0; b < stage.num_blocks; ++b) {
      const auto d0 = static_cast<std::uint32_t>(b * stage.block);
      for (std::uint32_t r = 0; r < S; ++r) {
        for (std::uint32_t c = 0; c < S; ++c) {
          const int expected = stage.grid->shard_empty({r, c}) ? 0 : 1;
          const int actual = visits[std::make_tuple(d0, r, c)];
          EXPECT_EQ(actual, expected)
              << "stage " << si << " block " << b << " shard (" << r << "," << c << ")";
        }
      }
    }
  }
}

TEST(Compiler, TokensProducedExactlyOnce) {
  const auto g = test_graph();
  for (const bool blocking : {true, false}) {
    const auto model = gnn::ModelSpec::graphsage_pool(48, 12, 5);
    DataflowOptions options;
    options.feature_blocking = blocking;
    options.block_size = 16;
    const LoweredModel plan = compile_model(g, model, tiny_config(), options);
    std::vector<int> produced(plan.token_names.size(), 0);
    for (const GemmWork& op : plan.dense_program) {
      if (op.produce_token != sim::kNoToken) {
        ++produced[op.produce_token];
      }
    }
    for (const AggWork& task : plan.graph_program) {
      if (task.produce_token != sim::kNoToken) {
        ++produced[task.produce_token];
      }
    }
    for (std::size_t t = 0; t < produced.size(); ++t) {
      EXPECT_EQ(produced[t], 1) << "token " << plan.token_names[t];
    }
  }
}

TEST(Compiler, WaitTokensReferenceExistingTokens) {
  const auto g = test_graph();
  const auto model = gnn::ModelSpec::graphsage_pool(48, 12, 5);
  const LoweredModel plan = compile_model(g, model, tiny_config(), DataflowOptions{});
  for (const GemmWork& op : plan.dense_program) {
    if (op.wait_token != sim::kNoToken) {
      EXPECT_LT(op.wait_token, plan.token_names.size());
    }
  }
  for (const AggWork& task : plan.graph_program) {
    if (task.wait_token != sim::kNoToken) {
      EXPECT_LT(task.wait_token, plan.token_names.size());
    }
  }
}

TEST(Compiler, UnblockedMeansBlockEqualsDims) {
  const auto g = test_graph();
  const auto model = gnn::ModelSpec::gcn(48, 12, 5);
  DataflowOptions options;
  options.feature_blocking = false;
  const LoweredModel plan = compile_model(g, model, tiny_config(), options);
  for (const AggStagePlan& stage : plan.agg_stages) {
    EXPECT_EQ(stage.block, stage.dims);
    EXPECT_EQ(stage.num_blocks, 1u);
  }
}

TEST(Compiler, AutoBlockIsArrayWidth) {
  const auto g = test_graph();
  const auto model = gnn::ModelSpec::gcn(100, 12, 5);
  const auto config = tiny_config();  // 16-wide array
  const LoweredModel plan = compile_model(g, model, config, DataflowOptions{});
  EXPECT_EQ(plan.agg_stages[0].block, 16u);
}

TEST(Compiler, BlockClampedToDims) {
  const auto g = test_graph();
  const auto model = gnn::ModelSpec::gcn(8, 4, 3);  // dims < array width
  const LoweredModel plan = compile_model(g, model, tiny_config(), DataflowOptions{});
  EXPECT_EQ(plan.agg_stages[0].block, 8u);
  EXPECT_EQ(plan.agg_stages[0].num_blocks, 1u);
}

TEST(Compiler, SmallerBlocksGiveSmallerGrids) {
  const auto g = test_graph(2, 400, 2500);
  const auto model = gnn::ModelSpec::gcn(256, 16, 5);
  DataflowOptions wide;
  wide.block_size = 256;
  DataflowOptions narrow;
  narrow.block_size = 16;
  const auto plan_wide = compile_model(g, model, tiny_config(), wide);
  const auto plan_narrow = compile_model(g, model, tiny_config(), narrow);
  EXPECT_LE(plan_narrow.agg_stages[0].sizing.grid_dim,
            plan_wide.agg_stages[0].sizing.grid_dim);
  EXPECT_GT(plan_narrow.agg_stages[0].sizing.nodes_per_shard,
            plan_wide.agg_stages[0].sizing.nodes_per_shard);
}

TEST(Compiler, SelfLoopsAddedToAggregationGraph) {
  const auto g = test_graph();
  const auto model = gnn::ModelSpec::gcn(48, 12, 5);
  const LoweredModel plan = compile_model(g, model, tiny_config(), DataflowOptions{});
  EXPECT_EQ(plan.agg_graph->num_self_loops(), g.num_nodes());
  EXPECT_EQ(plan.agg_graph->num_edges(), g.num_edges() + g.num_nodes());
  // Base degrees exclude the self loop.
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(plan.base_in_degree[v], g.in_degree(v));
  }
}

TEST(Compiler, StagesWithEqualIntervalsShareOneGrid) {
  const auto g = test_graph(2, 400, 2500);
  const auto model = gnn::ModelSpec::gcn(256, 16, 5);
  // B = 16 gives the 256-wide and 16-wide stages the same interval; B = 256
  // leaves the first stage a wider block and so a smaller interval.
  DataflowOptions narrow;
  narrow.block_size = 16;
  const LoweredModel shared = compile_model(g, model, tiny_config(), narrow);
  ASSERT_EQ(shared.agg_stages.size(), 2u);
  ASSERT_EQ(shared.agg_stages[0].sizing.nodes_per_shard,
            shared.agg_stages[1].sizing.nodes_per_shard);
  EXPECT_EQ(shared.agg_stages[0].grid, shared.agg_stages[1].grid);

  DataflowOptions wide;
  wide.block_size = 256;
  const LoweredModel distinct = compile_model(g, model, tiny_config(), wide);
  ASSERT_NE(distinct.agg_stages[0].sizing.nodes_per_shard,
            distinct.agg_stages[1].sizing.nodes_per_shard);
  EXPECT_NE(distinct.agg_stages[0].grid, distinct.agg_stages[1].grid);
}

/// Compiles sharing one memo share its self-loop graph and, across plans,
/// the grid for each interval size; a memo over another graph is refused.
TEST(Compiler, ArtifactMemoSharesAcrossCompilesOfItsGraph) {
  const auto g = test_graph(2, 400, 2500);
  const auto model = gnn::ModelSpec::gcn(256, 16, 5);
  const auto memo = std::make_shared<compiler::GraphArtifacts>(g);
  DataflowOptions narrow;
  narrow.block_size = 16;
  DataflowOptions wide;
  wide.block_size = 256;
  const LoweredModel a = Compiler(g, tiny_config(), narrow, memo).compile(model);
  const LoweredModel b = Compiler(g, tiny_config(), wide, memo).compile(model);
  EXPECT_EQ(a.agg_graph, b.agg_graph);
  EXPECT_EQ(b.agg_stages[1].sizing.nodes_per_shard, a.agg_stages[1].sizing.nodes_per_shard);
  EXPECT_EQ(b.agg_stages[1].grid, a.agg_stages[1].grid);
  EXPECT_EQ(a.describe(), compile_model(g, model, tiny_config(), narrow).describe());
  EXPECT_EQ(b.describe(), compile_model(g, model, tiny_config(), wide).describe());

  const auto other = test_graph(3, 400, 2500);
  EXPECT_THROW(Compiler(other, tiny_config(), narrow, memo), util::CheckError);
}

TEST(Compiler, SagePoolProducesIntervalTokens) {
  const auto g = test_graph();
  const auto model = gnn::ModelSpec::graphsage_pool(48, 12, 5);
  const LoweredModel plan = compile_model(g, model, tiny_config(), DataflowOptions{});
  // Dense-first: some graph task must wait on a dense-produced token.
  bool graph_waits = false;
  for (const AggWork& task : plan.graph_program) {
    graph_waits |= task.wait_token != sim::kNoToken;
  }
  EXPECT_TRUE(graph_waits);
  bool dense_produces_interval = false;
  for (const GemmWork& op : plan.dense_program) {
    if (op.produce_token != sim::kNoToken &&
        plan.token_names[op.produce_token].find(".ivl") != std::string::npos) {
      dense_produces_interval = true;
    }
  }
  EXPECT_TRUE(dense_produces_interval);
}

TEST(Compiler, GcnDenseWaitsOnColumnTokens) {
  const auto g = test_graph();
  const auto model = gnn::ModelSpec::gcn(48, 12, 5);
  const LoweredModel plan = compile_model(g, model, tiny_config(), DataflowOptions{});
  bool dense_waits_col = false;
  for (const GemmWork& op : plan.dense_program) {
    if (op.wait_token != sim::kNoToken &&
        plan.token_names[op.wait_token].find(".col") != std::string::npos) {
      dense_waits_col = true;
    }
  }
  EXPECT_TRUE(dense_waits_col);
}

TEST(Compiler, PredictedTrafficMatchesProgramSums) {
  const auto g = test_graph();
  const auto model = gnn::ModelSpec::graphsage(48, 12, 5);
  const LoweredModel plan = compile_model(g, model, tiny_config(), DataflowOptions{});
  std::uint64_t total = 0;
  for (const GemmWork& op : plan.dense_program) {
    total += op.a_dma_bytes + op.w_dma_bytes + op.psum_read_bytes + op.out_write_bytes;
  }
  for (const AggWork& task : plan.graph_program) {
    total += task.edge_dma_bytes + task.src_dma_bytes + task.dst_load_bytes +
             task.dst_write_bytes;
  }
  EXPECT_EQ(plan.predicted_dram_bytes, total);
}

TEST(Compiler, ActivationAppliedOncePerOutputCell) {
  // Exactly one op per (output row-range, n-range) chain carries apply_act
  // for a stage with activation; rows are covered completely.
  const auto g = test_graph();
  const auto model = gnn::ModelSpec::gcn(48, 12, 5);
  const LoweredModel plan = compile_model(g, model, tiny_config(), DataflowOptions{});
  // Layer 0 output: V x 12 with ReLU. Collect activated row coverage.
  std::vector<int> act_count(g.num_nodes(), 0);
  for (const GemmWork& op : plan.dense_program) {
    if (op.layer == 0 && op.out.stage >= 0 && op.apply_act) {
      EXPECT_EQ(op.act, gnn::Activation::kRelu);
      for (std::uint32_t r = op.row_begin; r < op.row_end; ++r) {
        ++act_count[r];
      }
    }
  }
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(act_count[v], 1) << "row " << v;
  }
}

TEST(Compiler, InfeasibleScratchpadThrows) {
  const auto g = test_graph();
  const auto model = gnn::ModelSpec::gcn(48, 12, 5);
  AcceleratorConfig config = tiny_config();
  config.graph.feature_scratch_bytes = 8 * util::kKiB;  // < one node at B=48... still ok
  DataflowOptions options;
  options.feature_blocking = false;  // B = 48 dims
  // 8 KiB can hold a few nodes; shrink further to force failure.
  config.graph.feature_scratch_bytes = 512;
  EXPECT_THROW(compile_model(g, model, config, options), util::CheckError);
}

TEST(Compiler, LayerTokensChainAcrossLayers) {
  const auto g = test_graph();
  const auto model = gnn::ModelSpec::gcn(48, 12, 5, /*hidden_layers=*/2);
  const LoweredModel plan = compile_model(g, model, tiny_config(), DataflowOptions{});
  // Layers 1 and 2 start with aggregation reading the previous layer's
  // output: their first graph task must wait on "L<k>.done".
  int layer_waits = 0;
  for (const AggWork& task : plan.graph_program) {
    if (task.wait_token != sim::kNoToken &&
        plan.token_names[task.wait_token].find(".done") != std::string::npos) {
      ++layer_waits;
    }
  }
  EXPECT_EQ(layer_waits, 2);
}

}  // namespace
}  // namespace gnnerator::core
