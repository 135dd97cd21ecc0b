// End-to-end tests of the GNNerator accelerator simulation: the functional
// output of the compiled, sharded, blocked, pipelined execution must match
// the reference CPU executor for every network, dataflow option and engine
// geometry. This is the test that proves Algorithm 1 is implemented
// correctly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/accelerator.hpp"
#include "core/compiler.hpp"
#include "core/executor.hpp"
#include "core/gnnerator.hpp"
#include "core/runtime.hpp"
#include "gnn/reference.hpp"
#include "gnn/weights.hpp"
#include "graph/builder.hpp"
#include "graph/generate.hpp"
#include "graph/sample.hpp"
#include "sim/trace.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace gnnerator {
namespace {

using core::AcceleratorConfig;
using core::DataflowOptions;
using core::LoweredModel;
using core::SimulationRequest;

/// Small accelerator config so that tiny test graphs still produce
/// multi-shard grids (exercising the interesting paths).
AcceleratorConfig small_config() {
  AcceleratorConfig c = AcceleratorConfig::table4();
  c.graph.feature_scratch_bytes = 96 * util::kKiB;
  c.graph.edge_buffer_bytes = 16 * util::kKiB;
  c.dense.input_buffer_bytes = 64 * util::kKiB;
  c.dense.weight_buffer_bytes = 64 * util::kKiB;
  c.dense.output_buffer_bytes = 64 * util::kKiB;
  c.dense.array.rows = 16;
  c.dense.array.cols = 16;
  c.graph.geometry.num_gpes = 4;
  c.graph.geometry.simd_lanes = 8;
  return c;
}

gnn::Tensor random_features(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  util::Prng prng(seed);
  gnn::Tensor t(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      t.at(r, c) = static_cast<float>(prng.uniform(-1.0, 1.0));
    }
  }
  return t;
}

/// Fills every aggregation output with NaN. The runtime leaves those
/// outputs unset until each column's first task initialises them, so an
/// element read before that turns NaN, which the golden and reference
/// comparisons catch (ASan cannot see reads of uninitialised memory).
void poison_aggregates(const LoweredModel& plan, core::RuntimeState& state) {
  for (const core::AggStagePlan& stage : plan.agg_stages) {
    state.mutable_tensor(stage.output).fill(std::numeric_limits<float>::quiet_NaN());
  }
}

/// No aggregation output holds a NaN: finite inputs make finite aggregates,
/// so a NaN is a poisoned element that no task initialised.
void expect_aggregates_initialised(const LoweredModel& plan, core::RuntimeState& state) {
  for (const core::AggStagePlan& stage : plan.agg_stages) {
    const gnn::Tensor& out = state.mutable_tensor(stage.output);
    EXPECT_TRUE(std::none_of(out.data(), out.data() + out.size(),
                             [](float v) { return std::isnan(v); }))
        << "aggregation output L" << stage.output.layer << ".S" << stage.output.stage
        << " holds an element no task initialised";
  }
}

/// The plan's functional output, computed on a pool of `threads` from
/// NaN-poisoned aggregation outputs.
gnn::Tensor run_functional(const LoweredModel& plan, const gnn::Tensor& features,
                           const gnn::ModelWeights& weights, std::size_t threads) {
  util::ThreadPool pool(threads);
  core::RuntimeState state(plan, features, weights);
  poison_aggregates(plan, state);
  core::FunctionalExecutor(&pool).execute(plan, state);
  expect_aggregates_initialised(plan, state);
  return state.final_output();
}

/// The plan's functional output from run_gemm and run_agg called once per
/// work item on the calling thread, from NaN-poisoned aggregation outputs:
/// phases in (layer, stage) order, program order within a phase. This is
/// the per-block path that the executor's merged aggregation pass must
/// reproduce bit for bit.
gnn::Tensor run_per_task(const LoweredModel& plan, const gnn::Tensor& features,
                         const gnn::ModelWeights& weights) {
  core::RuntimeState state(plan, features, weights);
  poison_aggregates(plan, state);
  std::map<std::pair<std::uint32_t, std::int32_t>, std::vector<std::pair<bool, std::size_t>>>
      phases;
  for (std::size_t i = 0; i < plan.dense_program.size(); ++i) {
    const core::TensorRef out = plan.dense_program[i].out;
    phases[{out.layer, out.stage}].emplace_back(true, i);
  }
  for (std::size_t i = 0; i < plan.graph_program.size(); ++i) {
    const core::TensorRef out = plan.agg_stages[plan.graph_program[i].agg_stage].output;
    phases[{out.layer, out.stage}].emplace_back(false, i);
  }
  for (const auto& [key, items] : phases) {
    for (const auto& [is_gemm, index] : items) {
      if (is_gemm) {
        state.run_gemm(plan.dense_program[index]);
      } else {
        state.run_agg(plan.graph_program[index]);
      }
    }
  }
  expect_aggregates_initialised(plan, state);
  return state.final_output();
}

bool same_bits(const gnn::Tensor& a, const gnn::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// FNV-1a-64 over the bytes mixed in, rendered as 16 hex digits.
class Fnv1a {
 public:
  void mix(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << hash_;
    return os.str();
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// FNV-1a over a tensor's bytes.
std::string output_bits_hex(const gnn::Tensor& t) {
  Fnv1a fnv;
  fnv.mix(t.data(), t.size() * sizeof(float));
  return fnv.hex();
}

/// Runs the accelerator functionally and compares against the reference,
/// then checks that the per-task path and pools of 1, 2, 3 and 8 threads
/// reproduce the serial output bitwise.
void expect_matches_reference(const graph::Graph& g, const gnn::ModelSpec& model,
                              const AcceleratorConfig& config, const DataflowOptions& options,
                              float tolerance = 2e-4f) {
  const gnn::Tensor features = random_features(g.num_nodes(), model.input_dim(), 99);
  const gnn::ModelWeights weights = gnn::init_weights(model, 42);

  const LoweredModel plan = core::compile_model(g, model, config, options);
  core::RuntimeState state(plan, features, weights);
  const core::ExecutionResult result = core::Accelerator::run(plan, &state);

  ASSERT_TRUE(result.output.has_value());
  const gnn::ReferenceExecutor reference(g);
  const gnn::Tensor expected = reference.run_model(model, weights, features);

  ASSERT_EQ(result.output->rows(), expected.rows());
  ASSERT_EQ(result.output->cols(), expected.cols());
  EXPECT_LE(gnn::Tensor::max_abs_diff(*result.output, expected), tolerance)
      << "accelerator output diverges from reference";
  EXPECT_GT(result.cycles, 0u);

  EXPECT_TRUE(same_bits(run_per_task(plan, features, weights), *result.output))
      << "the per-task path differs from the executor's merged aggregation";
  for (const std::size_t threads : {1, 2, 3, 8}) {
    EXPECT_TRUE(same_bits(run_functional(plan, features, weights, threads), *result.output))
        << "output on " << threads << " threads differs from the serial output";
  }
}

graph::Graph test_graph(std::uint64_t seed, graph::NodeId n = 120, std::size_t edges = 600) {
  util::Prng prng(seed);
  return graph::symmetrized(graph::power_law(n, edges, 1.5, prng));
}

TEST(AcceleratorFunctional, GcnMatchesReference) {
  const auto g = test_graph(1);
  const auto model = gnn::ModelSpec::gcn(40, 16, 7);
  expect_matches_reference(g, model, small_config(), DataflowOptions{});
}

TEST(AcceleratorFunctional, SageMeanMatchesReference) {
  const auto g = test_graph(2);
  const auto model = gnn::ModelSpec::graphsage(40, 16, 7);
  expect_matches_reference(g, model, small_config(), DataflowOptions{});
}

TEST(AcceleratorFunctional, SagePoolMatchesReference) {
  const auto g = test_graph(3);
  const auto model = gnn::ModelSpec::graphsage_pool(40, 16, 7);
  expect_matches_reference(g, model, small_config(), DataflowOptions{});
}

TEST(AcceleratorFunctional, GcnWithoutBlockingMatchesReference) {
  const auto g = test_graph(4);
  const auto model = gnn::ModelSpec::gcn(40, 16, 7);
  DataflowOptions options;
  options.feature_blocking = false;
  expect_matches_reference(g, model, small_config(), options);
}

TEST(AcceleratorFunctional, ThreeLayerGcnMatchesReference) {
  const auto g = test_graph(5);
  const auto model = gnn::ModelSpec::gcn(24, 12, 5, /*hidden_layers=*/2);
  expect_matches_reference(g, model, small_config(), DataflowOptions{});
}

/// Degenerate structure: a single vertex, no edges, isolated vertices,
/// fewer vertices than an 8-thread pool has row bands, and a hub-heavy
/// power-law graph.
TEST(AcceleratorFunctional, DegenerateGraphsMatchReference) {
  graph::GraphBuilder isolated(12);
  isolated.add_undirected_edge(0, 1).add_undirected_edge(1, 2).add_undirected_edge(7, 8);
  graph::GraphBuilder path(3);
  path.add_undirected_edge(0, 1).add_undirected_edge(1, 2);
  util::Prng prng(31);
  const std::vector<std::pair<std::string, graph::Graph>> graphs = {
      {"single vertex", graph::GraphBuilder(1).build()},
      {"no edges", graph::GraphBuilder(9).build()},
      {"isolated vertices", isolated.build()},
      {"V = 3", path.build()},
      {"hub-heavy power law", graph::symmetrized(graph::power_law(150, 900, 2.5, prng))},
  };
  graph::DatasetSpec spec;
  spec.feature_dim = 20;
  spec.num_classes = 3;
  for (const auto& [name, g] : graphs) {
    for (const gnn::LayerKind kind :
         {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
      SCOPED_TRACE(name + " " + std::string(gnn::layer_kind_name(kind)));
      expect_matches_reference(g, core::table3_model(kind, spec, 8), small_config(),
                               DataflowOptions{}, 1e-3f);
    }
  }
}

/// Golden output bits on multi-shard (S > 1) grids: a power-law graph
/// under small_config(), three networks, the per-task path and pools of 1 to
/// 8 threads, each from NaN-poisoned aggregation outputs.
TEST(AcceleratorFunctional, PowerLawOutputsMatchGoldenBits) {
  const char* const golden[] = {"690f8ce585596789", "c669e375fa269b4c", "7c110379b3154a93"};
  const auto g = test_graph(37, 1000, 5000);
  graph::DatasetSpec spec;
  spec.feature_dim = 40;
  spec.num_classes = 7;
  std::size_t cell = 0;
  for (const gnn::LayerKind kind :
       {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
    const gnn::ModelSpec model = core::table3_model(kind, spec);
    const LoweredModel plan = core::compile_model(g, model, small_config(), DataflowOptions{});
    for (const core::AggStagePlan& stage : plan.agg_stages) {
      ASSERT_GT(stage.grid->dim(), 1u);
    }
    const gnn::Tensor features = random_features(g.num_nodes(), model.input_dim(), 99);
    const gnn::ModelWeights weights = gnn::init_weights(model, 42);
    EXPECT_EQ(output_bits_hex(run_per_task(plan, features, weights)), golden[cell])
        << gnn::layer_kind_name(kind) << " per task moved from the golden";
    for (const std::size_t threads : {1, 2, 3, 4, 8}) {
      EXPECT_EQ(output_bits_hex(run_functional(plan, features, weights, threads)), golden[cell])
          << gnn::layer_kind_name(kind) << " on " << threads
          << " threads moved from the golden";
    }
    ++cell;
  }
}

/// The executor merges each aggregation phase into one pass per shard visit
/// over every feature block, which is exact only when every block visits the
/// same shards in the same order with the same init_accumulator flags. A
/// plan that breaks that is rejected, with the stage named, before any
/// element is computed.
TEST(AcceleratorFunctional, ExecuteRejectsBlocksThatVisitShardsDifferently) {
  const auto g = test_graph(37, 1000, 5000);
  graph::DatasetSpec spec;
  spec.feature_dim = 40;
  spec.num_classes = 7;
  const gnn::ModelSpec model = core::table3_model(gnn::LayerKind::kGcn, spec);
  const LoweredModel plan = core::compile_model(g, model, small_config(), DataflowOptions{});
  const core::AggStagePlan& stage = plan.agg_stages[0];
  ASSERT_GT(stage.grid->dim(), 1u);
  ASSERT_EQ(stage.dims, 40u);
  ASSERT_EQ(stage.block, 16u);  // blocks [0, 16), [16, 32) and [32, 40)
  const gnn::Tensor features = random_features(g.num_nodes(), model.input_dim(), 99);
  const gnn::ModelWeights weights = gnn::init_weights(model, 42);
  const auto execute = [&](const LoweredModel& p) -> std::string {
    core::RuntimeState state(p, features, weights);
    try {
      core::FunctionalExecutor().execute(p, state);
    } catch (const util::CheckError& e) {
      return e.what();
    }
    return "no error";
  };
  ASSERT_EQ(execute(plan), "no error");

  // Stage 0's tasks come first, block by block, one per live shard;
  // `second` is the first task of block [16, 32).
  std::size_t second = 0;
  while (plan.graph_program[second].d_begin == 0) {
    ++second;
  }
  ASSERT_LT(second + 1, plan.graph_program.size());
  ASSERT_EQ(plan.graph_program[second].d_begin, 16u);
  ASSERT_EQ(plan.graph_program[second + 1].d_begin, 16u);

  LoweredModel swapped = plan;
  std::swap(swapped.graph_program[second], swapped.graph_program[second + 1]);
  std::string what = execute(swapped);
  EXPECT_NE(what.find("aggregation stage 0 (L0.S0): feature block [16, 32) does not visit the "
                      "shards of block [0, 16)"),
            std::string::npos)
      << what;

  LoweredModel flag = plan;
  flag.graph_program[second].init_accumulator = !flag.graph_program[second].init_accumulator;
  what = execute(flag);
  EXPECT_NE(what.find("feature block [16, 32) does not visit the shards of block [0, 16) in the "
                      "same order with the same init_accumulator flags"),
            std::string::npos)
      << what;

  // Every block's first visit stops initialising its column: the blocks
  // still agree, but that column would start unset.
  const core::AggWork& first = plan.graph_program.front();
  ASSERT_TRUE(first.agg_stage == 0 && first.init_accumulator);
  LoweredModel uninitialised = plan;
  for (core::AggWork& task : uninitialised.graph_program) {
    if (task.agg_stage == 0 && task.coord == first.coord) {
      task.init_accumulator = false;
    }
  }
  what = execute(uninitialised);
  EXPECT_NE(what.find("is the first visit of its column but does not initialise it"),
            std::string::npos)
      << what;

  // Every block's first visit moved off the grid.
  LoweredModel off_grid = plan;
  for (core::AggWork& task : off_grid.graph_program) {
    if (task.agg_stage == 0 && task.coord == first.coord) {
      task.coord.row = stage.grid->dim();
    }
  }
  what = execute(off_grid);
  EXPECT_NE(what.find("lies outside its"), std::string::npos) << what;

  LoweredModel shared_output = plan;
  shared_output.agg_stages[1].output = shared_output.agg_stages[0].output;
  what = execute(shared_output);
  EXPECT_NE(what.find("aggregation stage 0 (L0.S0) shares its output with aggregation stage 1"),
            std::string::npos)
      << what;

  LoweredModel gap = plan;
  std::erase_if(gap.graph_program, [](const core::AggWork& task) {
    return task.agg_stage == 0 && task.d_begin == 16;
  });
  what = execute(gap);
  EXPECT_NE(what.find("feature block [32, 40) does not start where the blocks before it end, "
                      "at 16"),
            std::string::npos)
      << what;
}

// ---------------------------------------------------------------------------
// Property sweep: every (network, block size, traversal, blocking) point must
// be functionally exact. This is the paper's Algorithm 1 swept across its
// parameter space.
// ---------------------------------------------------------------------------
using SweepParam = std::tuple<gnn::LayerKind, std::size_t /*block*/, int /*traversal*/,
                              bool /*blocking*/>;

class DataflowSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(DataflowSweep, MatchesReference) {
  const auto [kind, block, traversal_code, blocking] = GetParam();
  const auto g = test_graph(7, 90, 420);

  gnn::ModelSpec model;
  const std::size_t in_dim = 36;
  switch (kind) {
    case gnn::LayerKind::kGcn:
      model = gnn::ModelSpec::gcn(in_dim, 10, 4);
      break;
    case gnn::LayerKind::kSageMean:
      model = gnn::ModelSpec::graphsage(in_dim, 10, 4);
      break;
    case gnn::LayerKind::kSagePool:
      model = gnn::ModelSpec::graphsage_pool(in_dim, 10, 4);
      break;
  }

  DataflowOptions options;
  options.feature_blocking = blocking;
  options.block_size = block;
  if (traversal_code == 1) {
    options.traversal = shard::Traversal::kSourceStationary;
  } else if (traversal_code == 2) {
    options.traversal = shard::Traversal::kDestStationary;
  }
  expect_matches_reference(test_graph(7, 90, 420), model, small_config(), options);
}

INSTANTIATE_TEST_SUITE_P(
    AllNetworksAllDataflows, DataflowSweep,
    ::testing::Combine(::testing::Values(gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean,
                                         gnn::LayerKind::kSagePool),
                       ::testing::Values(std::size_t{4}, std::size_t{8}, std::size_t{16},
                                         std::size_t{64}),
                       ::testing::Values(0, 1, 2),
                       ::testing::Values(true, false)));

// ---------------------------------------------------------------------------
// Orthogonal knobs that must never change results: the dense dataflow and
// sparsity elimination.
// ---------------------------------------------------------------------------
using KnobParam = std::tuple<gnn::LayerKind, int /*os dataflow*/, bool /*sparsity*/>;

class OrthogonalKnobSweep : public ::testing::TestWithParam<KnobParam> {};

TEST_P(OrthogonalKnobSweep, MatchesReference) {
  const auto [kind, use_os, sparsity] = GetParam();
  gnn::ModelSpec model;
  switch (kind) {
    case gnn::LayerKind::kGcn:
      model = gnn::ModelSpec::gcn(36, 10, 4);
      break;
    case gnn::LayerKind::kSageMean:
      model = gnn::ModelSpec::graphsage(36, 10, 4);
      break;
    case gnn::LayerKind::kSagePool:
      model = gnn::ModelSpec::graphsage_pool(36, 10, 4);
      break;
  }
  AcceleratorConfig config = small_config();
  config.dense.array.dataflow = use_os != 0 ? dense::SystolicDataflow::kOutputStationary
                                            : dense::SystolicDataflow::kWeightStationary;
  DataflowOptions options;
  options.block_size = 8;
  options.sparsity_elimination = sparsity;
  expect_matches_reference(test_graph(29, 110, 520), model, config, options);
}

INSTANTIATE_TEST_SUITE_P(
    DenseDataflowAndSparsity, OrthogonalKnobSweep,
    ::testing::Combine(::testing::Values(gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean,
                                         gnn::LayerKind::kSagePool),
                       ::testing::Values(0, 1), ::testing::Values(false, true)));

// ---------------------------------------------------------------------------
// Geometry sweep: engine shapes must never change results, only cycles.
// ---------------------------------------------------------------------------
class GeometrySweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GeometrySweep, MatchesReference) {
  const auto [gpes, array_dim] = GetParam();
  AcceleratorConfig config = small_config();
  config.graph.geometry.num_gpes = static_cast<std::uint32_t>(gpes);
  config.dense.array.rows = static_cast<std::uint32_t>(array_dim);
  config.dense.array.cols = static_cast<std::uint32_t>(array_dim);
  const auto model = gnn::ModelSpec::graphsage(30, 12, 5);
  expect_matches_reference(test_graph(11), model, config, DataflowOptions{});
}

INSTANTIATE_TEST_SUITE_P(EngineShapes, GeometrySweep,
                         ::testing::Combine(::testing::Values(1, 2, 8, 32),
                                            ::testing::Values(8, 32, 64)));

// ---------------------------------------------------------------------------
// Timing-mode sanity.
// ---------------------------------------------------------------------------
TEST(AcceleratorTiming, TimingModeNeedsNoFeatures) {
  const auto g = test_graph(13);
  const auto model = gnn::ModelSpec::gcn(64, 16, 7);
  const core::LoweredModel plan =
      core::compile_model(g, model, small_config(), DataflowOptions{});
  const auto result = core::Accelerator::run(plan, nullptr);
  EXPECT_FALSE(result.output.has_value());
  EXPECT_GT(result.cycles, 0u);
}

TEST(AcceleratorTiming, TimingIndependentOfFunctionalMode) {
  const auto g = test_graph(17);
  const auto model = gnn::ModelSpec::gcn(48, 16, 7);
  const core::LoweredModel plan =
      core::compile_model(g, model, small_config(), DataflowOptions{});

  const auto timing_only = core::Accelerator::run(plan, nullptr);

  const gnn::Tensor features = random_features(g.num_nodes(), 48, 5);
  const gnn::ModelWeights weights = gnn::init_weights(model, 42);
  core::RuntimeState state(plan, features, weights);
  const auto functional = core::Accelerator::run(plan, &state);

  EXPECT_EQ(timing_only.cycles, functional.cycles)
      << "functional execution must not perturb timing";
}

TEST(AcceleratorTiming, MoreBandwidthNeverSlower) {
  const auto g = test_graph(19, 200, 1400);
  const auto model = gnn::ModelSpec::gcn(96, 16, 7);
  AcceleratorConfig base = small_config();
  const auto plan_base = core::compile_model(g, model, base, DataflowOptions{});
  const auto cycles_base = core::Accelerator::run(plan_base, nullptr).cycles;

  AcceleratorConfig fast = base.with_double_bandwidth();
  const auto plan_fast = core::compile_model(g, model, fast, DataflowOptions{});
  const auto cycles_fast = core::Accelerator::run(plan_fast, nullptr).cycles;

  EXPECT_LE(cycles_fast, cycles_base);
}

TEST(AcceleratorTiming, DeterministicCycles) {
  const auto g = test_graph(23);
  const auto model = gnn::ModelSpec::graphsage(40, 16, 7);
  const auto plan = core::compile_model(g, model, small_config(), DataflowOptions{});
  const auto a = core::Accelerator::run(plan, nullptr).cycles;
  const auto b = core::Accelerator::run(plan, nullptr).cycles;
  EXPECT_EQ(a, b);
}

TEST(AcceleratorTiming, UnsignalledTokenFailsTheRunByName) {
  // A token that no op signals leaves the run with work the Controller never
  // released: the run must fail and say which token is still pending.
  const graph::Dataset d = graph::make_dataset_by_name("cora", 1, false);
  LoweredModel plan = core::compile_for(d, core::table3_model(gnn::LayerKind::kGcn, d.spec),
                                        SimulationRequest{});
  const auto failure = [&plan]() -> std::string {
    try {
      (void)core::Accelerator::run_timing(plan);
    } catch (const util::CheckError& e) {
      return e.what();
    }
    return "no error";
  };
  plan.token_names.push_back("orphan");
  const std::string one = failure();
  EXPECT_NE(one.find("1 pending tokens: orphan"), std::string::npos) << one;

  // Past eight pending tokens the message names the first eight.
  for (int i = 1; i <= 8; ++i) {
    plan.token_names.push_back("orphan" + std::to_string(i));
  }
  const std::string nine = failure();
  EXPECT_NE(nine.find("9 pending tokens: orphan orphan1 orphan2 orphan3 orphan4 orphan5 "
                      "orphan6 orphan7 ..."),
            std::string::npos)
      << nine;
}

// ---------------------------------------------------------------------------
// Golden stats bytes: the hardware models keep their counters as fields and
// export them by name once, when the run ends. These hashes pin every name
// and value, including counters that were only ever bumped by zero.
// ---------------------------------------------------------------------------

const graph::Dataset& structure_only(const std::string& name) {
  static std::map<std::string, graph::Dataset> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, graph::make_dataset_by_name(name, 1, false)).first;
  }
  return it->second;
}

/// FNV-1a over `cycles`, then each (name, value) of the stat set in name
/// order, as 16 hex digits.
std::string stats_hex(const core::ExecutionResult& result) {
  Fnv1a fnv;
  fnv.mix(&result.cycles, sizeof(result.cycles));
  for (const auto& [name, value] : result.stats.counters()) {
    fnv.mix(name.data(), name.size() + 1);  // with the terminating NUL
    fnv.mix(&value, sizeof(value));
  }
  return fnv.hex();
}

core::ExecutionResult run_dataset(const std::string& name, gnn::LayerKind kind,
                                  const SimulationRequest& request,
                                  sim::Tracer* tracer = nullptr) {
  const graph::Dataset& d = structure_only(name);
  return core::Accelerator::run_timing(
      core::compile_for(d, core::table3_model(kind, d.spec), request), tracer);
}

/// One fused batch of nine cora frontiers sampled at fanout 10/5: the plan
/// shape a sampled serving dispatch simulates.
core::ExecutionResult run_fused_cora_sample(std::uint64_t seed, sim::Tracer* tracer = nullptr) {
  util::Prng prng(seed);
  const graph::Dataset fused =
      graph::sample_fused_dataset(structure_only("cora"), 9, graph::parse_fanout("10/5"), prng);
  return core::Accelerator::run_timing(
      core::compile_for(fused, core::table3_model(gnn::LayerKind::kGcn, fused.spec),
                        SimulationRequest{}),
      tracer);
}

TEST(AcceleratorStats, StatsBytesMatchGolden) {
  SimulationRequest blocked;
  SimulationRequest unblocked;
  unblocked.dataflow.feature_blocking = false;
  SimulationRequest double_bandwidth;
  double_bandwidth.config = AcceleratorConfig::table4().with_double_bandwidth();
  SimulationRequest double_dense;
  double_dense.config = AcceleratorConfig::table4().with_double_dense_compute();

  const std::pair<const char*, core::ExecutionResult> runs[] = {
      {"cora-gcn", run_dataset("cora", gnn::LayerKind::kGcn, blocked)},
      {"cora-sage-mean", run_dataset("cora", gnn::LayerKind::kSageMean, blocked)},
      {"cora-sage-pool", run_dataset("cora", gnn::LayerKind::kSagePool, blocked)},
      {"citeseer-gcn-unblocked", run_dataset("citeseer", gnn::LayerKind::kGcn, unblocked)},
      {"citeseer-gcn-2x-bw", run_dataset("citeseer", gnn::LayerKind::kGcn, double_bandwidth)},
      // S = 2 and 311,804 cycles: the one multi-interval grid of the set.
      {"pubmed-gcn-2x-dense", run_dataset("pubmed", gnn::LayerKind::kGcn, double_dense)},
      {"cora-fused-sample", run_fused_cora_sample(2021)},
  };
  // Captured before the counters moved off the string-keyed map.
  const char* const golden[] = {"98c46421c1e076f3", "6b741add93db22ab", "1e7c043abc7831f3",
                                "4d15b6148f6676aa", "bc0103b82999abb3", "031febbc1693f704",
                                "d8e105ef8492d3f5"};
  for (std::size_t i = 0; i < std::size(runs); ++i) {
    EXPECT_EQ(stats_hex(runs[i].second), golden[i])
        << runs[i].first << " cycles=" << runs[i].second.cycles << '\n'
        << runs[i].second.stats.to_string();
  }
}

TEST(AcceleratorStats, ZeroBumpedCountersAreExportedAndUntouchedOnesAreNot) {
  const auto gcn = run_dataset("cora", gnn::LayerKind::kGcn, SimulationRequest{});
  const auto& counters = gcn.stats.counters();
  for (const char* name : {"dense.a_bytes", "dense.psum_read_bytes", "graph.dst_load_bytes"}) {
    const auto it = counters.find(name);
    ASSERT_NE(it, counters.end()) << name << " bumped only by zero must still be exported";
    EXPECT_EQ(it->second, 0u) << name;
  }
  const auto pool = run_dataset("cora", gnn::LayerKind::kSagePool, SimulationRequest{});
  for (const char* name : {"dense.stall_token_cycles", "graph.onchip_edge_bytes"}) {
    EXPECT_EQ(pool.stats.counters().count(name), 0u) << name << " is never bumped";
  }
  for (const auto* result : {&gcn, &pool}) {
    EXPECT_EQ(result->stats.counters().count("dram.bytes.graph.wb"), 0u)
        << "graph.wb submits no writeback on these plans";
  }
}

// ---------------------------------------------------------------------------
// Golden trace bytes: one hash per plan over the tracer's rendered text, so
// every fetch, compute and writeback event of both engines, its cycle, its
// `cycles=` value and the order of events are pinned, not only the compute
// windows a Chrome trace shows.
// ---------------------------------------------------------------------------

/// FNV-1a over `sim::Tracer::to_string()` of a timing run.
template <typename Run>
std::string trace_hex(const Run& run) {
  sim::Tracer tracer;
  tracer.enable();
  run(&tracer);
  EXPECT_FALSE(tracer.truncated());
  const std::string text = tracer.to_string();
  Fnv1a fnv;
  fnv.mix(text.data(), text.size());
  return fnv.hex();
}

TEST(AcceleratorTrace, TraceBytesMatchGolden) {
  SimulationRequest blocked;
  SimulationRequest unblocked;
  unblocked.dataflow.feature_blocking = false;
  const std::pair<const char*, std::string> runs[] = {
      {"cora-gcn", trace_hex([&](sim::Tracer* t) {
         (void)run_dataset("cora", gnn::LayerKind::kGcn, blocked, t);
       })},
      {"citeseer-sage-mean-unblocked", trace_hex([&](sim::Tracer* t) {
         (void)run_dataset("citeseer", gnn::LayerKind::kSageMean, unblocked, t);
       })},
      {"pubmed-sage-pool", trace_hex([&](sim::Tracer* t) {
         (void)run_dataset("pubmed", gnn::LayerKind::kSagePool, blocked, t);
       })},
      {"cora-fused-sample", trace_hex([](sim::Tracer* t) { (void)run_fused_cora_sample(2021, t); })},
  };
  const char* const golden[] = {"500d6521fc39405c", "62206c776f64b3f2", "973431827523dd96",
                                "86372682d4685050"};
  for (std::size_t i = 0; i < std::size(runs); ++i) {
    EXPECT_EQ(runs[i].second, golden[i]) << runs[i].first;
  }
}

}  // namespace
}  // namespace gnnerator
