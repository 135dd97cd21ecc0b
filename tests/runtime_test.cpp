// Tests for the runtime's functional-descriptor interpretation and the
// configuration module, plus the sparsity-elimination extension.
#include <gtest/gtest.h>

#include <memory>

#include "core/accelerator.hpp"
#include "core/compiler.hpp"
#include "core/gnnerator.hpp"
#include "core/runtime.hpp"
#include "gnn/reference.hpp"
#include "gnn/weights.hpp"
#include "graph/builder.hpp"
#include "graph/generate.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"
#include "util/units.hpp"

namespace gnnerator::core {
namespace {

graph::Graph small_graph() {
  graph::GraphBuilder b(6);
  b.add_undirected_edge(0, 1).add_undirected_edge(1, 2).add_undirected_edge(2, 3);
  b.add_undirected_edge(3, 4).add_undirected_edge(4, 5).add_undirected_edge(5, 0);
  return b.build();
}

AcceleratorConfig small_config() {
  AcceleratorConfig c = AcceleratorConfig::table4();
  c.graph.feature_scratch_bytes = 64 * util::kKiB;
  c.graph.edge_buffer_bytes = 16 * util::kKiB;
  c.dense.input_buffer_bytes = 32 * util::kKiB;
  c.dense.weight_buffer_bytes = 32 * util::kKiB;
  c.dense.output_buffer_bytes = 32 * util::kKiB;
  c.dense.array.rows = 8;
  c.dense.array.cols = 8;
  return c;
}

gnn::Tensor ramp_features(std::size_t rows, std::size_t cols) {
  gnn::Tensor t(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      t.at(r, c) = static_cast<float>(r) + 0.1f * static_cast<float>(c);
    }
  }
  return t;
}

TEST(RuntimeState, ResolvesTensorRefs) {
  const auto g = small_graph();
  const auto model = gnn::ModelSpec::gcn(4, 3, 2);
  const auto plan = compile_model(g, model, small_config(), DataflowOptions{});
  const gnn::Tensor features = ramp_features(6, 4);
  const auto weights = gnn::init_weights(model, 1);
  RuntimeState state(plan, features, weights);

  // Layer 0 input == the caller's features, borrowed: the same data, no copy.
  const TensorView input = state.tensor(TensorRef{0, -1});
  EXPECT_EQ(input.data, features.data());
  EXPECT_EQ(input.rows, 6u);
  EXPECT_EQ(input.cols, 4u);
  // Layer 1 input == layer 0's last stage output.
  EXPECT_EQ(state.tensor(TensorRef{1, -1}).data, state.mutable_tensor(TensorRef{0, 1}).data());
  // Stage shapes: L0 agg out is V x in_dim, L0 dense out is V x hidden.
  EXPECT_EQ(state.tensor(TensorRef{0, 0}).cols, 4u);
  EXPECT_EQ(state.tensor(TensorRef{0, 1}).cols, 3u);
  // Final output: last layer's last stage.
  EXPECT_EQ(&state.final_output(), &state.mutable_tensor(TensorRef{1, 1}));
  // Layer inputs are read-only.
  EXPECT_THROW((void)state.mutable_tensor(TensorRef{0, -1}), util::CheckError);
}

TEST(RuntimeState, ShapeMismatchesRejected) {
  const auto g = small_graph();
  const auto model = gnn::ModelSpec::gcn(4, 3, 2);
  const auto plan = compile_model(g, model, small_config(), DataflowOptions{});
  const auto weights = gnn::init_weights(model, 1);
  const gnn::Tensor wrong_rows = ramp_features(5, 4);
  EXPECT_THROW(RuntimeState(plan, wrong_rows, weights), util::CheckError);
  const gnn::Tensor wrong_cols = ramp_features(6, 5);
  EXPECT_THROW(RuntimeState(plan, wrong_cols, weights), util::CheckError);
}

/// Work that disagrees with the state's tensors is rejected before any
/// element is read or written.
TEST(RuntimeState, MalformedWorkRejected) {
  const auto g = small_graph();
  const auto model = gnn::ModelSpec::gcn(4, 3, 2);
  const auto plan = compile_model(g, model, small_config(), DataflowOptions{});
  const gnn::Tensor features = ramp_features(6, 4);
  const auto weights = gnn::init_weights(model, 1);
  ASSERT_EQ(plan.agg_stages.size(), 2u);
  ASSERT_FALSE(plan.dense_program.empty());

  // Layer 0 aggregates the 4-wide features into a 4-wide accumulator;
  // layer 1 aggregates a 3-wide input into a 3-wide accumulator.
  AggWork layer0;
  layer0.agg_stage = 0;
  layer0.d_begin = 0;
  layer0.d_end = 4;
  AggWork layer1 = layer0;
  layer1.agg_stage = 1;
  layer1.d_end = 3;
  const auto agg_throws = [&](const LoweredModel& p, const AggWork& task, const char* what) {
    RuntimeState state(p, features, weights);
    EXPECT_THROW(state.run_agg(task), util::CheckError) << what;
  };

  AggWork bad = layer0;
  bad.agg_stage = 2;
  agg_throws(plan, bad, "aggregation stage out of range");
  bad = layer0;
  bad.d_end = 40;
  agg_throws(plan, bad, "block past both widths");
  bad = layer0;
  bad.d_begin = 3;
  bad.d_end = 2;
  agg_throws(plan, bad, "reversed block");

  LoweredModel narrow_input = plan;
  narrow_input.agg_stages[0].input = TensorRef{0, 1};  // layer 0's 3-wide dense output
  agg_throws(narrow_input, layer0, "block past the input width");

  LoweredModel narrow_acc = plan;
  narrow_acc.agg_stages[1].input = TensorRef{0, -1};  // the 4-wide features
  bad = layer1;
  bad.d_end = 4;
  agg_throws(narrow_acc, bad, "block past the accumulator width");

  LoweredModel in_place = plan;
  in_place.agg_stages[0].input = in_place.agg_stages[0].output;
  agg_throws(in_place, layer0, "input is the accumulator");

  graph::GraphBuilder nine(9);
  nine.add_undirected_edge(0, 8);
  LoweredModel other_grid = plan;
  other_grid.agg_stages[0].grid = std::make_shared<const shard::ShardGrid>(nine.build(), 9);
  agg_throws(other_grid, layer0, "grid over another vertex count");

  const auto gemm_throws = [&](const GemmWork& op, const char* what) {
    RuntimeState state(plan, features, weights);
    EXPECT_THROW(state.run_gemm(op), util::CheckError) << what;
  };
  GemmWork op = plan.dense_program.front();
  op.row_end = 7;
  gemm_throws(op, "rows past A and the output");
  op = plan.dense_program.front();
  op.row_begin = 4;
  op.row_end = 2;
  gemm_throws(op, "reversed rows");
  op = plan.dense_program.front();
  op.a = op.out;
  gemm_throws(op, "A is the output");
}

TEST(RuntimeState, GemmFuncAccumulatesIntoOutput) {
  const auto g = small_graph();
  const auto model = gnn::ModelSpec::gcn(4, 3, 2);
  const auto plan = compile_model(g, model, small_config(), DataflowOptions{});
  const gnn::Tensor features = ramp_features(6, 4);
  const auto weights = gnn::init_weights(model, 1);
  RuntimeState state(plan, features, weights);

  // Execute only the graph program then the dense program functionally, in
  // order — equivalent to a fully serialised schedule — and verify against
  // the reference. This checks descriptor interpretation independent of the
  // timing pipeline.
  for (const AggWork& task : plan.graph_program) {
    if (task.agg_stage == 0) {  // layer 0 only for this test
      state.run_agg(task);
    }
  }
  const gnn::ReferenceExecutor reference(g);
  const gnn::Tensor expected = reference.aggregate(gnn::AggregateOp::kGcnNorm, features);
  EXPECT_LE(gnn::Tensor::max_abs_diff(state.mutable_tensor(TensorRef{0, 0}), expected), 1e-5f);
}

TEST(RuntimeState, MaxAggregationInitialisesToIdentity) {
  // With a max op, accumulators must start at -inf (via init_accumulator),
  // not zero — negative features would otherwise be clamped.
  graph::GraphBuilder b(3);
  b.add_undirected_edge(0, 1).add_undirected_edge(1, 2);
  const graph::Graph g = b.build();
  const auto model = gnn::ModelSpec::graphsage_pool(2, 2, 2);
  const auto plan = compile_model(g, model, small_config(), DataflowOptions{});
  gnn::Tensor features(3, 2);
  features.fill(-1.0f);  // all-negative inputs
  const auto weights = gnn::init_weights(model, 5);
  RuntimeState state(plan, features, weights);
  const auto result = Accelerator::run(plan, &state);
  const gnn::ReferenceExecutor reference(g);
  const gnn::Tensor expected = reference.run_model(model, weights, features);
  EXPECT_LE(gnn::Tensor::max_abs_diff(*result.output, expected), 1e-5f);
}

// ------------------------------------------------------------ sparsity --
TEST(SparsityElimination, PreservesFunctionalResults) {
  util::Prng prng(3);
  const auto g = graph::symmetrized(graph::power_law(80, 300, 1.8, prng));
  const auto model = gnn::ModelSpec::gcn(24, 8, 3);
  DataflowOptions options;
  options.feature_blocking = false;  // multi-shard grid
  options.sparsity_elimination = true;
  const auto plan = compile_model(g, model, small_config(), options);
  const gnn::Tensor features = ramp_features(80, 24);
  const auto weights = gnn::init_weights(model, 2);
  RuntimeState state(plan, features, weights);
  const auto result = Accelerator::run(plan, &state);
  const gnn::ReferenceExecutor reference(g);
  const gnn::Tensor expected = reference.run_model(model, weights, features);
  EXPECT_LE(gnn::Tensor::max_abs_diff(*result.output, expected), 1e-4f);
}

TEST(SparsityElimination, ReducesPredictedFeatureTraffic) {
  util::Prng prng(7);
  const auto g = graph::symmetrized(graph::power_law(400, 1200, 1.8, prng));  // sparse
  const auto model = gnn::ModelSpec::gcn(64, 8, 3);
  DataflowOptions base;
  base.feature_blocking = false;
  DataflowOptions elim = base;
  elim.sparsity_elimination = true;
  const auto plan_base = compile_model(g, model, small_config(), base);
  const auto plan_elim = compile_model(g, model, small_config(), elim);
  EXPECT_LT(plan_elim.predicted_dram_bytes, plan_base.predicted_dram_bytes);
}

TEST(SparsityElimination, NeverIncreasesCycles) {
  util::Prng prng(9);
  const auto g = graph::symmetrized(graph::power_law(400, 1200, 1.8, prng));
  const auto model = gnn::ModelSpec::gcn(64, 8, 3);
  DataflowOptions base;
  base.feature_blocking = false;
  DataflowOptions elim = base;
  elim.sparsity_elimination = true;
  const auto c_base =
      Accelerator::run(compile_model(g, model, small_config(), base), nullptr).cycles;
  const auto c_elim =
      Accelerator::run(compile_model(g, model, small_config(), elim), nullptr).cycles;
  EXPECT_LE(c_elim, c_base + c_base / 100);
}

// --------------------------------------------------------------- config --
TEST(Config, Table4HeadlineNumbers) {
  const auto c = AcceleratorConfig::table4();
  EXPECT_NEAR(c.peak_dense_tflops(), 8.192, 1e-9);
  EXPECT_NEAR(c.peak_graph_tflops(), 2.048, 1e-9);
  EXPECT_EQ(c.total_sram_bytes(), 30 * util::kMiB);
  EXPECT_NEAR(c.offchip_gb_per_s(), 256.0, 1e-9);
  EXPECT_NO_THROW(c.validate());
}

TEST(Config, VariantsChangeTheRightKnob) {
  const auto base = AcceleratorConfig::table4();
  const auto mem = base.with_double_graph_memory();
  EXPECT_EQ(mem.graph.feature_scratch_bytes, 2 * base.graph.feature_scratch_bytes);
  EXPECT_EQ(mem.dense.input_buffer_bytes, base.dense.input_buffer_bytes);

  const auto dense2x = base.with_double_dense_compute();
  EXPECT_EQ(dense2x.dense.array.macs_per_cycle(), 4 * base.dense.array.macs_per_cycle());

  const auto bw = base.with_double_bandwidth();
  EXPECT_NEAR(bw.offchip_gb_per_s(), 512.0, 1e-9);
  EXPECT_EQ(bw.total_sram_bytes(), base.total_sram_bytes());
}

TEST(Config, ValidateCatchesNonsense) {
  auto c = AcceleratorConfig::table4();
  c.dram.bytes_per_cycle = 0.0;
  EXPECT_THROW(c.validate(), util::CheckError);
  c = AcceleratorConfig::table4();
  c.clock_ghz = -1.0;
  EXPECT_THROW(c.validate(), util::CheckError);
}

TEST(Config, FormatIncludesEngines) {
  const std::string s = format_config(AcceleratorConfig::table4());
  EXPECT_NE(s.find("dense engine"), std::string::npos);
  EXPECT_NE(s.find("graph engine"), std::string::npos);
  EXPECT_NE(s.find("64x64"), std::string::npos);
}

}  // namespace
}  // namespace gnnerator::core
