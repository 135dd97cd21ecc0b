// Tests for the Engine subsystem (core/engine.hpp, core/plan_cache.hpp):
// plan-cache behaviour, thread-count invariance of functional outputs, and
// batch determinism — the PR's acceptance criteria.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <iomanip>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/accelerator.hpp"
#include "core/compiler.hpp"
#include "core/engine.hpp"
#include "core/executor.hpp"
#include "core/gnnerator.hpp"
#include "core/plan_cache.hpp"
#include "gnn/weights.hpp"
#include "graph/datasets.hpp"
#include "graph/generate.hpp"
#include "util/check.hpp"

namespace gnnerator::core {
namespace {

SimulationRequest timing_request() {
  SimulationRequest request;
  request.mode = SimMode::kTiming;
  return request;
}

TEST(PlanCache, HitMissAndEviction) {
  PlanCache cache(2);
  int compiles = 0;
  const auto compile_stub = [&compiles] {
    ++compiles;
    return std::make_shared<const LoweredModel>();
  };

  const auto a1 = cache.get_or_compile("a", compile_stub);
  const auto a2 = cache.get_or_compile("a", compile_stub);
  EXPECT_EQ(a1.get(), a2.get());  // shared, not recompiled
  EXPECT_EQ(compiles, 1);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  (void)cache.get_or_compile("b", compile_stub);
  (void)cache.get_or_compile("c", compile_stub);  // evicts "a" (LRU)
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().misses - cache.stats().evictions, 2u);  // "b" and "c" resident

  (void)cache.get_or_compile("a", compile_stub);  // miss again
  EXPECT_EQ(compiles, 4);
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(PlanCache, LruRefreshOnHit) {
  PlanCache cache(2);
  int compiles = 0;
  const auto compile_stub = [&compiles] {
    ++compiles;
    return std::make_shared<const LoweredModel>();
  };
  (void)cache.get_or_compile("a", compile_stub);
  (void)cache.get_or_compile("b", compile_stub);
  (void)cache.get_or_compile("a", compile_stub);  // refresh "a"
  (void)cache.get_or_compile("c", compile_stub);  // evicts "b", not "a"
  (void)cache.get_or_compile("a", compile_stub);  // still resident
  EXPECT_EQ(compiles, 3);
}

TEST(PlanCache, ZeroCapacityDisablesCaching) {
  PlanCache cache(0);
  int compiles = 0;
  const auto compile_stub = [&compiles] {
    ++compiles;
    return std::make_shared<const LoweredModel>();
  };
  (void)cache.get_or_compile("a", compile_stub);
  (void)cache.get_or_compile("a", compile_stub);
  EXPECT_EQ(compiles, 2);
}

TEST(PlanCache, CompileErrorPropagatesAndCachesNothing) {
  PlanCache cache(4);
  EXPECT_THROW(
      (void)cache.get_or_compile(
          "bad", []() -> std::shared_ptr<const LoweredModel> {
            throw util::CheckError("infeasible configuration");
          }),
      util::CheckError);
  // Nothing was cached: the key compiles again after a failure.
  int compiles = 0;
  (void)cache.get_or_compile("bad", [&compiles] {
    ++compiles;
    return std::make_shared<const LoweredModel>();
  });
  EXPECT_EQ(compiles, 1);
}

/// A lookup that joins an in-flight compilation counts as a hit *and* as a
/// single-flight wait, so cache effectiveness reporting can tell instant
/// LRU hits from blocked joins.
TEST(PlanCache, SingleFlightWaitCounter) {
  PlanCache cache(4);
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::promise<void> compiling;

  std::thread first([&] {
    (void)cache.get_or_compile("key", [&] {
      compiling.set_value();     // the compile is now in flight
      release_future.wait();     // hold it open until the joiner is counted
      return std::make_shared<const LoweredModel>();
    });
  });
  compiling.get_future().wait();

  std::thread joiner([&] { (void)cache.get_or_compile("key", [] {
    ADD_FAILURE() << "joiner must reuse the in-flight compile";
    return std::make_shared<const LoweredModel>();
  }); });

  // The joiner increments the wait counter *before* blocking on the shared
  // future, so polling the stats is race-free.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (cache.stats().single_flight_waits == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(cache.stats().single_flight_waits, 1u);
  release.set_value();
  first.join();
  joiner.join();

  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  // A plain LRU hit is not a single-flight wait.
  (void)cache.get_or_compile("key", [] { return std::make_shared<const LoweredModel>(); });
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().single_flight_waits, 1u);
}

/// A fleet of Engines constructed over one shared PlanCache compiles each
/// plan once; both engines observe the shared counters.
TEST(Engine, SharedPlanCacheAcrossEngines) {
  const graph::Dataset ds = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const auto model = table3_model(gnn::LayerKind::kGcn, ds.spec);
  const auto shared = std::make_shared<PlanCache>(16);

  Engine a(EngineOptions{.num_threads = 1, .shared_plan_cache = shared});
  Engine b(EngineOptions{.num_threads = 1, .shared_plan_cache = shared});
  const auto first = a.run(ds, model, timing_request());
  const auto second = b.run(ds, model, timing_request());
  EXPECT_EQ(first.cycles, second.cycles);
  EXPECT_EQ(shared->stats().misses, 1u) << "second engine must reuse the first's plan";
  EXPECT_EQ(shared->stats().hits, 1u);
  EXPECT_EQ(a.cache_stats().hits, b.cache_stats().hits);
  EXPECT_EQ(a.plan_cache().get(), b.plan_cache().get());
}

TEST(Engine, RepeatedRequestHitsPlanCache) {
  const graph::Dataset ds = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const auto model = table3_model(gnn::LayerKind::kGcn, ds.spec);
  Engine engine(EngineOptions{.num_threads = 1});

  const auto first = engine.run(ds, model, timing_request());
  EXPECT_EQ(engine.cache_stats().misses, 1u);
  EXPECT_EQ(engine.cache_stats().hits, 0u);

  const auto second = engine.run(ds, model, timing_request());
  EXPECT_EQ(engine.cache_stats().misses, 1u);  // no recompile
  EXPECT_EQ(engine.cache_stats().hits, 1u);
  EXPECT_EQ(first.cycles, second.cycles);
}

TEST(Engine, CacheKeyDistinguishesConfigAndDataflow) {
  const graph::Dataset ds = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const auto model = table3_model(gnn::LayerKind::kGcn, ds.spec);
  Engine engine(EngineOptions{.num_threads = 1});

  (void)engine.run(ds, model, timing_request());
  SimulationRequest wider = timing_request();
  wider.config = wider.config.with_double_bandwidth();
  (void)engine.run(ds, model, wider);
  SimulationRequest unblocked = timing_request();
  unblocked.dataflow.feature_blocking = false;
  (void)engine.run(ds, model, unblocked);
  EXPECT_EQ(engine.cache_stats().misses, 3u);
  EXPECT_EQ(engine.cache_stats().evictions, 0u);
}

TEST(Engine, MatchesOneShotFacade) {
  const graph::Dataset ds = graph::make_dataset_by_name("citeseer", 1, /*with_features=*/false);
  const auto model = table3_model(gnn::LayerKind::kSagePool, ds.spec);
  Engine engine(EngineOptions{.num_threads = 2});
  const auto via_engine = engine.run(ds, model, timing_request());
  const auto via_facade = simulate_gnnerator(ds, model, timing_request());
  EXPECT_EQ(via_engine.cycles, via_facade.cycles);
}

TEST(Engine, DatasetRegistry) {
  Engine engine(EngineOptions{.num_threads = 1});
  EXPECT_FALSE(engine.has_dataset("cora"));
  engine.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  EXPECT_TRUE(engine.has_dataset("cora"));
  EXPECT_EQ(engine.dataset("cora").spec.num_nodes, 2708u);
  EXPECT_THROW((void)engine.dataset("unknown"), util::CheckError);

  SimulationRequest request = timing_request();
  request.model = table3_model(gnn::LayerKind::kGcn, engine.dataset("cora").spec);
  request.dataset = "cora";
  EXPECT_GT(engine.run(request).cycles, 0u);

  SimulationRequest incomplete = timing_request();
  EXPECT_THROW((void)engine.run(incomplete), util::CheckError);
}

/// FNV-1a over a tensor's bytes as 16 hex digits.
std::string output_bits_hex(const gnn::Tensor& t) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.data());
  for (std::size_t i = 0; i < t.size() * sizeof(float); ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << hash;
  return os.str();
}

/// Functional output bits of cora and citeseer x GCN, GraphSAGE-mean and
/// GraphSAGE-pool, in that order.
constexpr const char* kFunctionalGolden[] = {
    "ee828618c98000da", "db6dd33f098b1cf0", "1d23ac4ba00dc7af",  // cora
    "3817dfae79783119", "ff2467025f1a65af", "22b052632c84306a",  // citeseer
};

/// Acceptance: functional outputs are bitwise identical for every pool
/// size, on two datasets x three layer kinds, and equal to committed golden
/// bits, so a kernel change that moves one rounding fails here even when
/// every pool size agrees with every other.
TEST(Engine, FunctionalOutputsThreadCountInvariant) {
  std::size_t cell = 0;
  for (const char* ds_name : {"cora", "citeseer"}) {
    const graph::Dataset ds = graph::make_dataset_by_name(ds_name);
    for (const gnn::LayerKind kind :
         {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
      const auto model = table3_model(kind, ds.spec);
      SimulationRequest request;
      request.mode = SimMode::kFunctional;
      std::optional<std::uint64_t> cycles;
      for (const std::size_t threads : {1, 2, 3, 4, 8}) {
        SCOPED_TRACE(std::string(ds_name) + " " + std::string(gnn::layer_kind_name(kind)) +
                     " threads " + std::to_string(threads));
        Engine engine(EngineOptions{.num_threads = threads});
        const auto result = engine.run(ds, model, request);
        ASSERT_TRUE(result.output.has_value());
        EXPECT_EQ(output_bits_hex(*result.output), kFunctionalGolden[cell])
            << "functional output moved from the golden";
        EXPECT_EQ(result.cycles, cycles.value_or(result.cycles));
        cycles = result.cycles;
      }
      ++cell;
    }
  }
}

/// The runtime leaves aggregation outputs unset until each column's first
/// task initialises them. Filled with NaN first, they must still give the
/// golden bits and hold no NaN afterwards: an element read before it is
/// initialised would turn NaN (ASan cannot see reads of uninitialised
/// memory).
TEST(Engine, NaNPoisonedAggregatesReachTheGoldenBits) {
  std::size_t cell = 0;
  for (const char* ds_name : {"cora", "citeseer"}) {
    const graph::Dataset ds = graph::make_dataset_by_name(ds_name);
    for (const gnn::LayerKind kind :
         {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
      const auto model = table3_model(kind, ds.spec);
      SimulationRequest request;
      request.mode = SimMode::kFunctional;
      const LoweredModel plan = compile_for(ds, model, request);
      const gnn::ModelWeights weights = gnn::init_weights(model, request.weight_seed);
      for (const std::size_t threads : {1, 4}) {
        SCOPED_TRACE(std::string(ds_name) + " " + std::string(gnn::layer_kind_name(kind)) +
                     " threads " + std::to_string(threads));
        RuntimeState state(plan, ds.features, weights);
        for (const AggStagePlan& stage : plan.agg_stages) {
          state.mutable_tensor(stage.output).fill(std::numeric_limits<float>::quiet_NaN());
        }
        ThreadPool pool(threads);
        FunctionalExecutor(&pool).execute(plan, state);
        for (const AggStagePlan& stage : plan.agg_stages) {
          const gnn::Tensor& out = state.mutable_tensor(stage.output);
          EXPECT_TRUE(std::none_of(out.data(), out.data() + out.size(),
                                   [](float v) { return std::isnan(v); }))
              << "aggregation output L" << stage.output.layer << ".S" << stage.output.stage;
        }
        EXPECT_EQ(output_bits_hex(state.final_output()), kFunctionalGolden[cell]);
      }
      ++cell;
    }
  }
}

/// Acceptance: run_batch is deterministic across thread counts and
/// preserves request order.
TEST(Engine, RunBatchDeterministicAcrossThreadCounts) {
  Engine one(EngineOptions{.num_threads = 1});
  Engine many(EngineOptions{.num_threads = 3});
  for (Engine* engine : {&one, &many}) {
    engine->add_dataset(graph::make_dataset_by_name("cora"));
    engine->add_dataset(graph::make_dataset_by_name("citeseer"));
  }

  std::vector<SimulationRequest> requests;
  for (const char* ds_name : {"cora", "citeseer"}) {
    const auto spec = *graph::find_dataset(ds_name);
    for (const gnn::LayerKind kind : {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
      SimulationRequest request;
      request.dataset = ds_name;
      request.model = table3_model(kind, spec);
      request.mode = SimMode::kFunctional;
      requests.push_back(std::move(request));
    }
  }

  const auto results_one = one.run_batch(requests);
  const auto results_many = many.run_batch(requests);
  ASSERT_EQ(results_one.size(), requests.size());
  ASSERT_EQ(results_many.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(results_one[i].cycles, results_many[i].cycles) << "request " << i;
    ASSERT_TRUE(results_one[i].output.has_value() && results_many[i].output.has_value());
    EXPECT_EQ(*results_one[i].output, *results_many[i].output) << "request " << i;
  }
  // Distinct (dataset, model) identities -> distinct plans, each compiled
  // once per engine.
  EXPECT_EQ(one.cache_stats().misses, requests.size());
  EXPECT_EQ(many.cache_stats().misses, requests.size());
}

/// Timing requests over the registered dataset `ds_name`: GCN and
/// GraphSAGE-mean, each blocked and unblocked.
std::vector<SimulationRequest> registered_requests(const std::string& ds_name) {
  const auto spec = *graph::find_dataset(ds_name);
  std::vector<SimulationRequest> requests;
  for (const gnn::LayerKind kind : {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
    for (const bool blocked : {true, false}) {
      SimulationRequest request = timing_request();
      request.dataset = ds_name;
      request.model = table3_model(kind, spec);
      request.dataflow.feature_blocking = blocked;
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

/// Plans compiled against one registration share its self-loop graph, and
/// plans whose stages have equal interval sizes share one grid; each plan
/// still lowers and simulates exactly as a standalone compile of the raw
/// graph does.
TEST(Engine, RegisteredDatasetSharesCompileArtifacts) {
  Engine engine(EngineOptions{.num_threads = 1});
  const graph::Dataset& ds =
      engine.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));

  std::set<const graph::Graph*> agg_graphs;
  std::map<graph::NodeId, std::set<const shard::ShardGrid*>> grids;
  std::vector<std::shared_ptr<const LoweredModel>> plans;
  for (const SimulationRequest& request : registered_requests("cora")) {
    const ExecutionResult result = engine.run(request);
    plans.push_back(engine.plan_for(request));  // the plan run() executed
    const LoweredModel& plan = *plans.back();
    agg_graphs.insert(plan.agg_graph.get());
    for (const AggStagePlan& stage : plan.agg_stages) {
      grids[stage.sizing.nodes_per_shard].insert(stage.grid.get());
    }

    const LoweredModel direct =
        compile_model(ds.graph, request.model, request.config, request.dataflow);
    const ExecutionResult direct_result = Accelerator::run_timing(direct);
    EXPECT_EQ(plan.describe(), direct.describe());
    EXPECT_EQ(result.cycles, direct_result.cycles);
    EXPECT_EQ(result.stats.counters(), direct_result.stats.counters());
  }
  EXPECT_EQ(engine.cache_stats().misses, plans.size());
  EXPECT_EQ(agg_graphs.size(), 1u) << "every plan must hold the registration's self-loop graph";
  EXPECT_GE(grids.size(), 2u) << "blocked and unblocked stages size their shards differently";
  for (const auto& [n, objects] : grids) {
    EXPECT_EQ(objects.size(), 1u) << "plans with n = " << n << " must share one grid";
  }
}

/// The memo holds only weak references: once the plan cache has evicted
/// every plan over a dataset and the caller holds none, its artifacts are
/// freed, and the next compile builds them again.
TEST(Engine, CompileArtifactsLiveOnlyAsLongAsPlans) {
  Engine engine(EngineOptions{.num_threads = 1, .plan_cache_capacity = 1});
  engine.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  engine.add_dataset(graph::make_dataset_by_name("citeseer", 1, /*with_features=*/false));
  const SimulationRequest cora = registered_requests("cora").front();
  const SimulationRequest citeseer = registered_requests("citeseer").front();

  const std::uint64_t cycles = engine.run(cora).cycles;
  std::shared_ptr<const LoweredModel> plan = engine.plan_for(cora);
  const std::weak_ptr<const graph::Graph> agg_graph = plan->agg_graph;
  const std::weak_ptr<const shard::ShardGrid> grid = plan->agg_stages.front().grid;
  plan.reset();
  EXPECT_FALSE(agg_graph.expired()) << "the cached plan still holds it";

  (void)engine.run(citeseer);  // evicts the only plan over cora
  EXPECT_EQ(engine.cache_stats().evictions, 1u);
  EXPECT_TRUE(agg_graph.expired());
  EXPECT_TRUE(grid.expired());

  EXPECT_EQ(engine.run(cora).cycles, cycles);  // rebuilt on demand
}

/// Concurrent compiles against one registration build each artifact once
/// and produce exactly what serial runs produce.
TEST(Engine, ConcurrentCompilesOfOneDatasetMatchSerialRuns) {
  std::vector<SimulationRequest> requests;
  for (const SimulationRequest& base : registered_requests("cora")) {
    SimulationRequest wide = base;
    wide.config = wide.config.with_double_bandwidth();
    SimulationRequest double_graph_memory = base;
    double_graph_memory.config = double_graph_memory.config.with_double_graph_memory();
    requests.push_back(base);
    requests.push_back(std::move(wide));
    requests.push_back(std::move(double_graph_memory));
  }
  ASSERT_GE(requests.size(), 8u);

  Engine serial(EngineOptions{.num_threads = 1});
  Engine parallel(EngineOptions{.num_threads = 4});
  for (Engine* engine : {&serial, &parallel}) {
    engine->add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  }
  const std::vector<ExecutionResult> batch = parallel.run_batch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  std::set<const graph::Graph*> agg_graphs;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const ExecutionResult expected = serial.run(requests[i]);
    EXPECT_EQ(batch[i].cycles, expected.cycles) << "request " << i;
    EXPECT_EQ(batch[i].stats.counters(), expected.stats.counters()) << "request " << i;
    agg_graphs.insert(parallel.plan_for(requests[i])->agg_graph.get());
  }
  EXPECT_EQ(parallel.cache_stats().misses, requests.size());
  EXPECT_EQ(agg_graphs.size(), 1u);
}

/// Re-registering a name with a different graph gives the new registration
/// its own memo: later plans lower over the new graph.
TEST(Engine, ReRegisteringANameCompilesOverTheNewGraph) {
  Engine engine(EngineOptions{.num_threads = 1});
  const SimulationRequest request = registered_requests("cora").front();
  engine.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  const std::shared_ptr<const LoweredModel> old_plan = engine.plan_for(request);

  const graph::Dataset& fresh =
      engine.add_dataset(graph::make_dataset_by_name("cora", 2, /*with_features=*/false));
  const std::shared_ptr<const LoweredModel> new_plan = engine.plan_for(request);
  EXPECT_NE(new_plan->agg_graph.get(), old_plan->agg_graph.get());
  const graph::Graph looped = graph::with_self_loops(fresh.graph);
  EXPECT_TRUE(std::ranges::equal(new_plan->agg_graph->edges(), looped.edges()));
  EXPECT_FALSE(std::ranges::equal(old_plan->agg_graph->edges(), looped.edges()));

  const LoweredModel direct =
      compile_model(fresh.graph, request.model, request.config, request.dataflow);
  EXPECT_EQ(new_plan->describe(), direct.describe());
  EXPECT_EQ(engine.run(request).cycles, Accelerator::run_timing(direct).cycles);
}

TEST(PlanCacheKey, FingerprintSeparatesGraphs) {
  const graph::Dataset a = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const graph::Dataset b = graph::make_dataset_by_name("cora", 2, /*with_features=*/false);
  const graph::Dataset c = graph::make_dataset_by_name("citeseer", 1, /*with_features=*/false);
  const std::string fa = graph_fingerprint(a.graph);
  EXPECT_EQ(fa, graph_fingerprint(a.graph));  // deterministic
  EXPECT_NE(fa, graph_fingerprint(b.graph));  // same spec, different seed
  EXPECT_NE(fa, graph_fingerprint(c.graph));
}

}  // namespace
}  // namespace gnnerator::core
