// Tests for the public façade (core/gnnerator.hpp): the one-call API the
// examples and benchmark harness are built on.
#include <gtest/gtest.h>

#include "core/gnnerator.hpp"
#include "graph/datasets.hpp"
#include "util/check.hpp"

namespace gnnerator::core {
namespace {

TEST(Facade, Table3ModelFactories) {
  const auto spec = *graph::find_dataset("cora");
  const auto gcn = table3_model(gnn::LayerKind::kGcn, spec);
  EXPECT_EQ(gcn.name, "gcn");
  EXPECT_EQ(gcn.input_dim(), 1433u);
  EXPECT_EQ(gcn.layers.back().out_dim, 7u);
  EXPECT_EQ(gcn.layers.size(), 2u);
  EXPECT_EQ(gcn.layers[0].out_dim, 16u);

  const auto sage = table3_model(gnn::LayerKind::kSageMean, spec, /*hidden=*/32,
                                 /*hidden_layers=*/2);
  EXPECT_EQ(sage.layers.size(), 3u);
  EXPECT_EQ(sage.layers[1].in_dim, 32u);

  const auto pool = table3_model(gnn::LayerKind::kSagePool, spec);
  EXPECT_EQ(pool.name, "gsage-max");
}

TEST(Facade, TimingModeWorksWithoutFeatures) {
  const graph::Dataset ds = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const auto model = table3_model(gnn::LayerKind::kGcn, ds.spec);
  SimulationRequest request;  // kTiming by default
  const auto result = simulate_gnnerator(ds, model, request);
  EXPECT_GT(result.cycles, 0u);
  EXPECT_FALSE(result.output.has_value());
}

TEST(Facade, FunctionalModeRequiresFeatures) {
  const graph::Dataset ds = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const auto model = table3_model(gnn::LayerKind::kGcn, ds.spec);
  SimulationRequest request;
  request.mode = SimMode::kFunctional;
  EXPECT_THROW((void)simulate_gnnerator(ds, model, request), util::CheckError);
}

TEST(Facade, CompileForExposesPlan) {
  const graph::Dataset ds = graph::make_dataset_by_name("cora", 1, false);
  const auto model = table3_model(gnn::LayerKind::kGcn, ds.spec);
  SimulationRequest request;
  const LoweredModel plan = compile_for(ds, model, request);
  EXPECT_FALSE(plan.dense_program.empty());
  EXPECT_FALSE(plan.graph_program.empty());
  EXPECT_EQ(plan.agg_stages.size(), 2u);  // one aggregation per layer
  EXPECT_EQ(plan.agg_stages[0].block, 64u);  // paper default B
}

TEST(Facade, MillisecondsScaleWithClock) {
  ExecutionResult result;
  result.cycles = 2'000'000;
  EXPECT_DOUBLE_EQ(result.milliseconds(1.0), 2.0);
  EXPECT_DOUBLE_EQ(result.milliseconds(2.0), 1.0);
}

TEST(Facade, WeightSeedChangesFunctionalOutputOnly) {
  const graph::Dataset ds = graph::make_dataset_by_name("cora", 1, /*with_features=*/true);
  const auto model = table3_model(gnn::LayerKind::kGcn, ds.spec);
  SimulationRequest a;
  a.mode = SimMode::kFunctional;
  a.weight_seed = 1;
  SimulationRequest b = a;
  b.weight_seed = 2;
  const auto ra = simulate_gnnerator(ds, model, a);
  const auto rb = simulate_gnnerator(ds, model, b);
  EXPECT_EQ(ra.cycles, rb.cycles) << "weights must not affect timing";
  ASSERT_TRUE(ra.output.has_value() && rb.output.has_value());
  EXPECT_GT(gnn::Tensor::max_abs_diff(*ra.output, *rb.output), 0.0f);
}

}  // namespace
}  // namespace gnnerator::core
