#include "core/engine.hpp"

#include <utility>

#include "core/accelerator.hpp"
#include "core/compiler.hpp"
#include "core/compiler/artifacts.hpp"
#include "core/runtime.hpp"
#include "gnn/weights.hpp"
#include "util/check.hpp"

namespace gnnerator::core {

Engine::Engine(EngineOptions options)
    : cache_(options.shared_plan_cache
                 ? std::move(options.shared_plan_cache)
                 : std::make_shared<PlanCache>(options.plan_cache_capacity)),
      pool_(options.num_threads) {}

const graph::Dataset& Engine::add_dataset(graph::Dataset dataset) {
  return add_dataset(std::make_shared<const graph::Dataset>(std::move(dataset)));
}

const graph::Dataset& Engine::add_dataset(std::shared_ptr<const graph::Dataset> dataset,
                                          std::string fingerprint) {
  GNNERATOR_CHECK_MSG(dataset != nullptr, "cannot register a null dataset");
  GNNERATOR_CHECK_MSG(!dataset->spec.name.empty(), "dataset needs a name to be registered");
  Registered entry;
  entry.fingerprint = fingerprint.empty()
                          ? graph_fingerprint(dataset->graph)  // hashed once, not per request
                          : std::move(fingerprint);
  // A memo per registration: a request that snapshotted the entry before
  // its name was re-registered keeps compiling against the old graph's.
  entry.artifacts = std::make_shared<compiler::GraphArtifacts>(dataset->graph);
  entry.dataset = std::move(dataset);
  std::lock_guard<std::mutex> lock(datasets_mutex_);
  const std::string name = entry.dataset->spec.name;
  auto [it, inserted] = datasets_.insert_or_assign(name, std::move(entry));
  return *it->second.dataset;
}

bool Engine::has_dataset(std::string_view name) const {
  std::lock_guard<std::mutex> lock(datasets_mutex_);
  return datasets_.find(name) != datasets_.end();
}

Engine::Registered Engine::registered(std::string_view name) const {
  std::lock_guard<std::mutex> lock(datasets_mutex_);
  auto it = datasets_.find(name);
  GNNERATOR_CHECK_MSG(it != datasets_.end(), "no dataset registered as '" << name << "'");
  return it->second;  // shared_ptr copy keeps the snapshot alive unlocked
}

Engine::Registered Engine::registered(const SimulationRequest& request) const {
  GNNERATOR_CHECK_MSG(!request.dataset.empty(),
                      "request needs a dataset id (or use the explicit-dataset overload)");
  GNNERATOR_CHECK_MSG(!request.model.layers.empty(), "request needs a model");
  return registered(request.dataset);
}

const graph::Dataset& Engine::dataset(std::string_view name) const {
  return *registered(name).dataset;
}

std::shared_ptr<const LoweredModel> Engine::plan_for_key(
    const graph::Dataset& dataset, const gnn::ModelSpec& model, const SimulationRequest& request,
    std::string_view dataset_key, std::shared_ptr<compiler::GraphArtifacts> artifacts) {
  // Resolve the per-stage dataflow choices first (cheap analysis passes):
  // the cache keys on *resolved* choices, so raw-option spellings that
  // lower identically share one plan.
  Compiler compiler(dataset.graph, request.config, request.dataflow, std::move(artifacts));
  const PlanSignature signature = compiler.resolve(model);
  const std::string key =
      plan_cache_key(dataset_key, model, request.config, request.dataflow, signature);
  return cache_->get_or_compile(key, [&] {
    return std::make_shared<const LoweredModel>(compiler.compile(model));
  });
}

std::shared_ptr<const LoweredModel> Engine::plan_for(const graph::Dataset& dataset,
                                                     const gnn::ModelSpec& model,
                                                     const SimulationRequest& request) {
  // Callers may pass graphs the Engine has never seen; the structural
  // fingerprint identifies any graph uniformly. Registered datasets skip
  // this O(E) hash — their fingerprint is memoized at registration.
  return plan_for_key(dataset, model, request, graph_fingerprint(dataset.graph),
                      /*artifacts=*/nullptr);
}

std::shared_ptr<const LoweredModel> Engine::plan_for(const SimulationRequest& request) {
  const Registered entry = registered(request);
  return plan_for_key(*entry.dataset, request.model, request, entry.fingerprint,
                      entry.artifacts);
}

ExecutionResult Engine::run_impl(const graph::Dataset& dataset, const gnn::ModelSpec& model,
                                 const SimulationRequest& request, ThreadPool* functional_pool,
                                 const Registered* entry, sim::Tracer* tracer) {
  const std::shared_ptr<const LoweredModel> plan =
      entry != nullptr
          ? plan_for_key(dataset, model, request, entry->fingerprint, entry->artifacts)
          : plan_for(dataset, model, request);
  if (request.mode == SimMode::kTiming) {
    return Accelerator::run_timing(*plan, tracer);
  }

  GNNERATOR_CHECK_MSG(!dataset.features.empty(),
                      "functional simulation needs materialised dataset features");
  const gnn::ModelWeights weights = gnn::init_weights(model, request.weight_seed);
  RuntimeState state(*plan, dataset.features, weights);
  return Accelerator::run(*plan, &state, tracer, functional_pool);
}

ExecutionResult Engine::run(const graph::Dataset& dataset, const gnn::ModelSpec& model,
                            const SimulationRequest& request) {
  return run_impl(dataset, model, request, &pool_, /*entry=*/nullptr);
}

ExecutionResult Engine::run(const SimulationRequest& request) {
  const Registered entry = registered(request);
  return run_impl(*entry.dataset, request.model, request, &pool_, &entry);
}

ExecutionResult Engine::run(const graph::Dataset& dataset, const gnn::ModelSpec& model,
                            const SimulationRequest& request, sim::Tracer* tracer) {
  return run_impl(dataset, model, request, &pool_, /*entry=*/nullptr, tracer);
}

ExecutionResult Engine::run(const SimulationRequest& request, sim::Tracer* tracer) {
  const Registered entry = registered(request);
  return run_impl(*entry.dataset, request.model, request, &pool_, &entry, tracer);
}

std::vector<ExecutionResult> Engine::run_batch(std::span<const SimulationRequest> requests) {
  std::vector<ExecutionResult> results(requests.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    tasks.emplace_back([this, &requests, &results, i] {
      const SimulationRequest& request = requests[i];
      GNNERATOR_CHECK_MSG(!request.dataset.empty(),
                          "batch request " << i << " needs a dataset id");
      GNNERATOR_CHECK_MSG(!request.model.layers.empty(),
                          "batch request " << i << " needs a model");
      // Serial functional execution inside the slot: the batch already
      // occupies the pool, and nested run_all would deadlock. The snapshot
      // keeps the dataset alive even if it is re-registered mid-batch.
      const Registered entry = registered(request.dataset);
      results[i] = run_impl(*entry.dataset, request.model, request,
                            /*functional_pool=*/nullptr, &entry);
    });
  }
  pool_.run_all(tasks);
  return results;
}

}  // namespace gnnerator::core
