// Tests for the GNN model layer: tensors, layer/stage decomposition,
// weights, and the reference executor's aggregation semantics (hand-checked
// against Eq. 1/2 of the paper on tiny graphs).
#include <gtest/gtest.h>

#include <cmath>

#include "gnn/layers.hpp"
#include "gnn/reference.hpp"
#include "gnn/tensor.hpp"
#include "gnn/weights.hpp"
#include "graph/builder.hpp"
#include "util/check.hpp"

namespace gnnerator::gnn {
namespace {

// ---------------------------------------------------------------- tensor --
TEST(Tensor, ShapeAndAccess) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  t.at(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(t.at(1, 2), 5.0f);
  EXPECT_FLOAT_EQ(t.at(0, 0), 0.0f);
  EXPECT_THROW((void)t.at(2, 0), util::CheckError);
  EXPECT_THROW((void)t.at(0, 3), util::CheckError);
}

TEST(Tensor, RowSpanWritesThrough) {
  Tensor t(2, 2);
  auto row = t.row(1);
  row[0] = 7.0f;
  EXPECT_FLOAT_EQ(t.at(1, 0), 7.0f);
}

TEST(Tensor, ConstructFromValuesValidatesSize) {
  EXPECT_NO_THROW(Tensor(2, 2, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor(2, 2, {1, 2, 3}), util::CheckError);
}

TEST(Tensor, ConcatCols) {
  const Tensor a(2, 2, {1, 2, 3, 4});
  const Tensor b(2, 1, {9, 8});
  const Tensor c = Tensor::concat_cols(a, b);
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_FLOAT_EQ(c.at(0, 2), 9.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 3.0f);
  const Tensor mismatched(3, 1);
  EXPECT_THROW(Tensor::concat_cols(a, mismatched), util::CheckError);
}

TEST(Tensor, MaxAbsDiff) {
  const Tensor a(1, 3, {1, 2, 3});
  const Tensor b(1, 3, {1, 2.5, 3});
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(a, b), 0.5f);
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(a, a), 0.0f);
}

// ---------------------------------------------------------------- layers --
TEST(Layers, GcnStagePipeline) {
  const LayerSpec layer{LayerKind::kGcn, 8, 4, Activation::kRelu};
  const auto stages = layer_stages(layer);
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].kind, StageSpec::Kind::kAggregate);
  EXPECT_EQ(stages[0].op, AggregateOp::kGcnNorm);
  EXPECT_EQ(stages[0].dims, 8u);
  EXPECT_EQ(stages[1].kind, StageSpec::Kind::kDense);
  EXPECT_EQ(stages[1].in_dim, 8u);
  EXPECT_EQ(stages[1].out_dim, 4u);
  EXPECT_FALSE(stages[1].concat_layer_input);
  EXPECT_FALSE(is_dense_first(layer));
}

TEST(Layers, SageMeanStagePipeline) {
  const LayerSpec layer{LayerKind::kSageMean, 8, 4, Activation::kRelu};
  const auto stages = layer_stages(layer);
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].op, AggregateOp::kMean);
  EXPECT_EQ(stages[1].in_dim, 16u);  // [z̄ ‖ h]
  EXPECT_TRUE(stages[1].concat_layer_input);
  EXPECT_FALSE(is_dense_first(layer));
}

TEST(Layers, SagePoolStagePipelineIsDenseFirst) {
  const LayerSpec layer{LayerKind::kSagePool, 8, 4, Activation::kRelu};
  const auto stages = layer_stages(layer);
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(stages[0].kind, StageSpec::Kind::kDense);  // pool transform
  EXPECT_EQ(stages[0].out_dim, 4u);                    // narrow pool (DESIGN.md)
  EXPECT_EQ(stages[1].kind, StageSpec::Kind::kAggregate);
  EXPECT_EQ(stages[1].op, AggregateOp::kMax);
  EXPECT_EQ(stages[1].dims, 4u);
  EXPECT_EQ(stages[2].in_dim, 12u);  // [z̄(4) ‖ h(8)]
  EXPECT_TRUE(is_dense_first(layer));
}

TEST(Layers, WeightShapesMatchStages) {
  const LayerSpec pool{LayerKind::kSagePool, 8, 4, Activation::kRelu};
  const auto shapes = layer_weight_shapes(pool);
  ASSERT_EQ(shapes.size(), 2u);
  EXPECT_EQ(shapes[0].rows, 8u);
  EXPECT_EQ(shapes[0].cols, 4u);
  EXPECT_EQ(shapes[1].rows, 12u);
  EXPECT_EQ(shapes[1].cols, 4u);
}

TEST(Layers, ModelFactoriesChainDimensions) {
  const ModelSpec m = ModelSpec::gcn(1433, 16, 7);
  ASSERT_EQ(m.layers.size(), 2u);
  EXPECT_EQ(m.input_dim(), 1433u);
  EXPECT_EQ(m.layers.back().out_dim, 7u);
  EXPECT_EQ(m.layers[0].out_dim, 16u);
  EXPECT_EQ(m.layers[1].in_dim, 16u);
  EXPECT_EQ(m.layers[1].activation, Activation::kNone);  // logits

  const ModelSpec deep = ModelSpec::graphsage(100, 32, 5, /*hidden_layers=*/3);
  EXPECT_EQ(deep.layers.size(), 4u);
}

TEST(Layers, ValidateModelRejectsBrokenChains) {
  ModelSpec m;
  m.name = "broken";
  m.layers.push_back(LayerSpec{LayerKind::kGcn, 8, 4, Activation::kRelu});
  m.layers.push_back(LayerSpec{LayerKind::kGcn, 5, 4, Activation::kRelu});  // 4 != 5
  EXPECT_THROW(validate_model(m), util::CheckError);
  EXPECT_THROW(validate_model(ModelSpec{}), util::CheckError);
}

TEST(Layers, ActivationSemantics) {
  EXPECT_FLOAT_EQ(apply_activation(Activation::kRelu, -2.0f), 0.0f);
  EXPECT_FLOAT_EQ(apply_activation(Activation::kRelu, 3.0f), 3.0f);
  EXPECT_FLOAT_EQ(apply_activation(Activation::kNone, -2.0f), -2.0f);
}

TEST(Layers, EdgeCoefficients) {
  // Sum/max: unweighted.
  EXPECT_FLOAT_EQ(aggregation_edge_coeff(AggregateOp::kSum, 3, 5), 1.0f);
  EXPECT_FLOAT_EQ(aggregation_edge_coeff(AggregateOp::kMax, 3, 5), 1.0f);
  // Mean depends only on the destination degree.
  EXPECT_FLOAT_EQ(aggregation_edge_coeff(AggregateOp::kMean, 3, 4), 1.0f / 5.0f);
  // GCN renormalisation.
  EXPECT_FLOAT_EQ(aggregation_edge_coeff(AggregateOp::kGcnNorm, 3, 1),
                  1.0f / std::sqrt(8.0f));
  // Self loop at degree d: 1/(d+1) for both mean and gcn-norm.
  EXPECT_FLOAT_EQ(aggregation_edge_coeff(AggregateOp::kGcnNorm, 4, 4), 1.0f / 5.0f);
  EXPECT_FLOAT_EQ(aggregation_edge_coeff(AggregateOp::kMean, 4, 4), 1.0f / 5.0f);
}

// --------------------------------------------------------------- weights --
TEST(Weights, ShapesAndDeterminism) {
  const ModelSpec m = ModelSpec::graphsage_pool(10, 6, 3);
  const ModelWeights a = init_weights(m, 42);
  const ModelWeights b = init_weights(m, 42);
  ASSERT_EQ(a.layers.size(), 2u);
  ASSERT_EQ(a.layers[0].size(), 2u);  // pool + update
  EXPECT_EQ(a.weight(0, 0).rows(), 10u);
  EXPECT_EQ(a.weight(0, 0).cols(), 6u);
  EXPECT_EQ(a.weight(0, 1).rows(), 16u);
  EXPECT_EQ(a.weight(0, 1), b.weight(0, 1));
  const ModelWeights c = init_weights(m, 43);
  EXPECT_NE(a.weight(0, 0), c.weight(0, 0));
}

TEST(Weights, XavierBoundRespected) {
  const ModelSpec m = ModelSpec::gcn(100, 50, 10);
  const ModelWeights w = init_weights(m, 1);
  const double bound = std::sqrt(6.0 / 150.0);
  for (std::size_t r = 0; r < 100; ++r) {
    for (std::size_t c = 0; c < 50; ++c) {
      EXPECT_LE(std::fabs(w.weight(0, 0).at(r, c)), bound);
    }
  }
}

// ------------------------------------------------------------- reference --
/// Path graph 0 - 1 - 2 (symmetric), 1-dim features {1, 10, 100}.
class ReferencePathGraph : public ::testing::Test {
 protected:
  ReferencePathGraph() : graph_(make_graph()), exec_(graph_), input_(3, 1, {1, 10, 100}) {}

  static graph::Graph make_graph() {
    graph::GraphBuilder b(3);
    b.add_undirected_edge(0, 1).add_undirected_edge(1, 2);
    return b.build();
  }

  graph::Graph graph_;
  ReferenceExecutor exec_;
  Tensor input_;
};

TEST_F(ReferencePathGraph, SumAggregation) {
  const Tensor out = exec_.aggregate(AggregateOp::kSum, input_);
  EXPECT_FLOAT_EQ(out.at(0, 0), 11.0f);    // self 1 + neighbor 10
  EXPECT_FLOAT_EQ(out.at(1, 0), 111.0f);   // 10 + 1 + 100
  EXPECT_FLOAT_EQ(out.at(2, 0), 110.0f);   // 100 + 10
}

TEST_F(ReferencePathGraph, MeanAggregation) {
  const Tensor out = exec_.aggregate(AggregateOp::kMean, input_);
  EXPECT_FLOAT_EQ(out.at(0, 0), 11.0f / 2.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 111.0f / 3.0f);
  EXPECT_FLOAT_EQ(out.at(2, 0), 110.0f / 2.0f);
}

TEST_F(ReferencePathGraph, MaxAggregation) {
  const Tensor out = exec_.aggregate(AggregateOp::kMax, input_);
  EXPECT_FLOAT_EQ(out.at(0, 0), 10.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 100.0f);
  EXPECT_FLOAT_EQ(out.at(2, 0), 100.0f);
}

TEST_F(ReferencePathGraph, GcnNormAggregation) {
  // Node 0 (deg 1): self/(1+1) + h1/sqrt(2*3) = 0.5 + 10/sqrt(6)
  const Tensor out = exec_.aggregate(AggregateOp::kGcnNorm, input_);
  EXPECT_NEAR(out.at(0, 0), 0.5 + 10.0 / std::sqrt(6.0), 1e-5);
  // Node 1 (deg 2): 10/3 + 1/sqrt(6) + 100/sqrt(6)
  EXPECT_NEAR(out.at(1, 0), 10.0 / 3.0 + 101.0 / std::sqrt(6.0), 1e-4);
}

TEST_F(ReferencePathGraph, IsolatedNodeAggregatesSelfOnly) {
  graph::GraphBuilder b(2);
  b.add_edge(0, 1);  // node 1 has in-degree 1; make a graph with isolated 0? no:
  const graph::Graph g = b.build();
  const ReferenceExecutor exec(g);
  const Tensor in(2, 1, {3, 4});
  const Tensor max_out = exec.aggregate(AggregateOp::kMax, in);
  EXPECT_FLOAT_EQ(max_out.at(0, 0), 3.0f);  // no in-edges: self only
  EXPECT_FLOAT_EQ(max_out.at(1, 0), 4.0f);  // max(4, 3)
  const Tensor mean_out = exec.aggregate(AggregateOp::kMean, in);
  EXPECT_FLOAT_EQ(mean_out.at(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(mean_out.at(1, 0), 3.5f);
}

TEST(ReferenceDense, GemmWithRelu) {
  const Tensor in(2, 2, {1, -1, 2, 0});
  const Tensor w(2, 2, {1, 2, 3, 4});
  const Tensor out = ReferenceExecutor::dense(in, w, Activation::kRelu);
  // Row 0: [1*1 + -1*3, 1*2 + -1*4] = [-2, -2] -> relu 0, 0
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 0.0f);
  // Row 1: [2, 4]
  EXPECT_FLOAT_EQ(out.at(1, 0), 2.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 4.0f);
}

TEST(ReferenceDense, DimensionMismatchThrows) {
  const Tensor in(2, 3);
  const Tensor w(2, 2);
  EXPECT_THROW(ReferenceExecutor::dense(in, w, Activation::kNone), util::CheckError);
}

TEST_F(ReferencePathGraph, SageMeanLayerConcatenatesSelf) {
  // 1-dim in, 1-dim out, weight [2 x 1] = [[wz], [wh]]: h' = wz*z̄ + wh*h.
  const LayerSpec layer{LayerKind::kSageMean, 1, 1, Activation::kNone};
  std::vector<Tensor> weights;
  weights.push_back(Tensor(2, 1, {2.0f, 0.5f}));
  const Tensor out = exec_.run_layer(layer, weights, input_);
  EXPECT_FLOAT_EQ(out.at(0, 0), 2.0f * 5.5f + 0.5f * 1.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 2.0f * 37.0f + 0.5f * 10.0f);
}

TEST_F(ReferencePathGraph, SagePoolLayerHandChecked) {
  // Pool: z = relu(h * 1.0) = h; max over N∪self; update = [z̄ ‖ h] · w.
  const LayerSpec layer{LayerKind::kSagePool, 1, 1, Activation::kNone};
  std::vector<Tensor> weights;
  weights.push_back(Tensor(1, 1, {1.0f}));        // pool identity
  weights.push_back(Tensor(2, 1, {1.0f, 1.0f}));  // sum of z̄ and h
  const Tensor out = exec_.run_layer(layer, weights, input_);
  EXPECT_FLOAT_EQ(out.at(0, 0), 10.0f + 1.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 100.0f + 10.0f);
  EXPECT_FLOAT_EQ(out.at(2, 0), 100.0f + 100.0f);
}

TEST_F(ReferencePathGraph, RunModelChainsLayers) {
  const ModelSpec m = ModelSpec::gcn(1, 2, 1);
  const ModelWeights w = init_weights(m, 3);
  const Tensor out = exec_.run_model(m, w, input_);
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 1u);
}

}  // namespace
}  // namespace gnnerator::gnn
