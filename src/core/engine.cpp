#include "core/engine.hpp"

#include <utility>

#include "core/accelerator.hpp"
#include "core/compiler.hpp"
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

const graph::Dataset& Engine::dataset(std::string_view name) const {
  return *registered(name).dataset;
}

std::shared_ptr<const LoweredModel> Engine::plan_for_key(const graph::Dataset& dataset,
                                                         const gnn::ModelSpec& model,
                                                         const SimulationRequest& request,
                                                         std::string_view dataset_key) {
  // Resolve the per-stage dataflow choices first (cheap analysis passes):
  // the cache keys on *resolved* choices, so raw-option spellings that
  // lower identically share one plan.
  Compiler compiler(dataset.graph, request.config, request.dataflow);
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
  return plan_for_key(dataset, model, request, graph_fingerprint(dataset.graph));
}

ExecutionResult Engine::run_impl(const graph::Dataset& dataset, const gnn::ModelSpec& model,
                                 const SimulationRequest& request, ThreadPool* functional_pool,
                                 const std::string* dataset_key, sim::Tracer* tracer) {
  const std::shared_ptr<const LoweredModel> plan =
      dataset_key != nullptr ? plan_for_key(dataset, model, request, *dataset_key)
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
  return run_impl(dataset, model, request, &pool_);
}

ExecutionResult Engine::run(const SimulationRequest& request) {
  GNNERATOR_CHECK_MSG(!request.dataset.empty(),
                      "request needs a dataset id (or use the explicit-dataset overload)");
  GNNERATOR_CHECK_MSG(!request.model.layers.empty(), "request needs a model");
  const Registered entry = registered(request.dataset);
  return run_impl(*entry.dataset, request.model, request, &pool_, &entry.fingerprint);
}

ExecutionResult Engine::run(const graph::Dataset& dataset, const gnn::ModelSpec& model,
                            const SimulationRequest& request, sim::Tracer* tracer) {
  return run_impl(dataset, model, request, &pool_, /*dataset_key=*/nullptr, tracer);
}

ExecutionResult Engine::run(const SimulationRequest& request, sim::Tracer* tracer) {
  GNNERATOR_CHECK_MSG(!request.dataset.empty(),
                      "request needs a dataset id (or use the explicit-dataset overload)");
  GNNERATOR_CHECK_MSG(!request.model.layers.empty(), "request needs a model");
  const Registered entry = registered(request.dataset);
  return run_impl(*entry.dataset, request.model, request, &pool_, &entry.fingerprint, tracer);
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
                            /*functional_pool=*/nullptr, &entry.fingerprint);
    });
  }
  pool_.run_all(tasks);
  return results;
}

}  // namespace gnnerator::core
