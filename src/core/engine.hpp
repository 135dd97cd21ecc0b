#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/executor.hpp"
#include "core/gnnerator.hpp"
#include "core/plan_cache.hpp"
#include "graph/datasets.hpp"

namespace gnnerator::sim {
class Tracer;
}  // namespace gnnerator::sim

namespace gnnerator::core {

struct EngineOptions {
  /// Worker-pool parallelism (functional arithmetic, run_batch requests).
  /// Counts the calling thread; 1 = fully serial, 0 = hardware concurrency.
  std::size_t num_threads = 0;
  /// LRU capacity of the plan cache; 0 disables caching. Ignored when
  /// `shared_plan_cache` is set.
  std::size_t plan_cache_capacity = 64;
  /// When non-null, this Engine uses the given cache instead of owning one —
  /// a fleet of device Engines (serve::Server) shares compiled plans, so a
  /// model deployed across N devices is compiled once, not N times.
  std::shared_ptr<PlanCache> shared_plan_cache = nullptr;
};

/// A reusable GNNerator simulation service: owns a plan cache keyed by
/// (dataset, model, accelerator config, dataflow options), a dataset
/// registry, and a worker pool.
///
/// One configured Engine serves many requests:
///   * repeated identical requests reuse the compiled LoweredModel instead
///     of re-running the compiler (observable via cache_stats()),
///   * compiles against a registered dataset share its self-loop graph and
///     one shard grid per interval size (compiler::GraphArtifacts, one memo
///     per registration), built once instead of once per compile; the memo
///     holds weak references, so the plan cache bounds what it keeps,
///   * functional-mode arithmetic runs on the worker pool, split into row
///     bands that keep every element's order of operations — outputs are
///     bitwise identical for every thread count,
///   * run_batch executes independent requests concurrently.
///
/// The timing simulation itself stays deterministic and single-threaded per
/// request (the cycle kernel's tick order is part of the model's
/// determinism contract); threads only ever carry functional arithmetic and
/// whole independent requests.
///
/// Thread-safety: the plan cache and dataset registry are internally
/// locked, and registry entries are shared_ptr-backed — re-registering a
/// name while requests against it are in flight is safe (they finish on
/// the old snapshot). A reference obtained from dataset() is only
/// guaranteed until that name is re-registered. run/run_batch may be
/// called from any one thread at a time; calls from inside the Engine's
/// own pool tasks would deadlock and are not supported.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers a dataset under its spec name (the id batch requests use).
  /// Re-registering the same name replaces the dataset.
  const graph::Dataset& add_dataset(graph::Dataset dataset);
  /// Shared-ownership registration: a fleet of device Engines
  /// (serve::Server) registers one Dataset instance into every engine
  /// without copying the graph. `fingerprint`, when non-empty, is the
  /// memoized structural fingerprint (skips the O(E) hash per engine).
  const graph::Dataset& add_dataset(std::shared_ptr<const graph::Dataset> dataset,
                                    std::string fingerprint = {});
  [[nodiscard]] bool has_dataset(std::string_view name) const;
  /// Throws CheckError for an unknown name.
  [[nodiscard]] const graph::Dataset& dataset(std::string_view name) const;

  /// Simulates `model` over `dataset` (explicit-dataset form; the request's
  /// dataset/model fields are ignored). The plan is cached by the graph's
  /// structural fingerprint.
  ExecutionResult run(const graph::Dataset& dataset, const gnn::ModelSpec& model,
                      const SimulationRequest& request);

  /// Simulates request.model over the registered dataset named
  /// request.dataset.
  ExecutionResult run(const SimulationRequest& request);

  /// run() with an event tracer attached to the cycle-level simulation:
  /// `tracer`, when non-null and enabled, records the pipeline events the
  /// hardware models emit (gemm/shard/fetch start–done). The observability
  /// layer (src/obs/) uses this to capture per-engine busy windows on a
  /// class's first execution; results are identical to the untraced run.
  ExecutionResult run(const graph::Dataset& dataset, const gnn::ModelSpec& model,
                      const SimulationRequest& request, sim::Tracer* tracer);
  ExecutionResult run(const SimulationRequest& request, sim::Tracer* tracer);

  /// Executes independent requests concurrently on the worker pool;
  /// results[i] corresponds to requests[i]. Each request's functional
  /// arithmetic runs serially inside its slot (request-level parallelism
  /// already saturates the pool), so results are identical to run().
  std::vector<ExecutionResult> run_batch(std::span<const SimulationRequest> requests);

  /// The compiled plan a request would execute (cached).
  std::shared_ptr<const LoweredModel> plan_for(const graph::Dataset& dataset,
                                               const gnn::ModelSpec& model,
                                               const SimulationRequest& request);
  /// The compiled plan run(request) executes over the registered dataset
  /// named request.dataset (cached).
  std::shared_ptr<const LoweredModel> plan_for(const SimulationRequest& request);

  [[nodiscard]] PlanCacheStats cache_stats() const { return cache_->stats(); }
  [[nodiscard]] std::size_t num_threads() const { return pool_.parallelism(); }
  /// The plan cache this Engine compiles through (shared or owned).
  [[nodiscard]] const std::shared_ptr<PlanCache>& plan_cache() const { return cache_; }

 private:
  /// A registered dataset plus what is derived from its graph once per
  /// registration instead of per request: the structural fingerprint (the
  /// plan-cache dataset key) and the compile-artifact memo, through which
  /// every plan compiled against the registration shares one self-loop
  /// graph and one shard grid per interval size.
  struct Registered {
    std::shared_ptr<const graph::Dataset> dataset;
    std::string fingerprint;
    std::shared_ptr<compiler::GraphArtifacts> artifacts;
  };

  /// Throws CheckError for a request without a dataset id or model, or an
  /// unknown dataset id.
  [[nodiscard]] Registered registered(const SimulationRequest& request) const;
  [[nodiscard]] Registered registered(std::string_view name) const;
  /// `entry` is null for a dataset passed by reference, which is keyed by
  /// its structural fingerprint and shares no artifacts across compiles.
  ExecutionResult run_impl(const graph::Dataset& dataset, const gnn::ModelSpec& model,
                           const SimulationRequest& request, ThreadPool* functional_pool,
                           const Registered* entry, sim::Tracer* tracer = nullptr);
  std::shared_ptr<const LoweredModel> plan_for_key(
      const graph::Dataset& dataset, const gnn::ModelSpec& model,
      const SimulationRequest& request, std::string_view dataset_key,
      std::shared_ptr<compiler::GraphArtifacts> artifacts);

  std::shared_ptr<PlanCache> cache_;
  ThreadPool pool_;
  mutable std::mutex datasets_mutex_;
  std::map<std::string, Registered, std::less<>> datasets_;
};

}  // namespace gnnerator::core
