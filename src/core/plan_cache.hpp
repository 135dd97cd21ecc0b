#pragma once

#include <atomic>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>

#include "core/compiler.hpp"
#include "core/plan.hpp"
#include "gnn/layers.hpp"
#include "graph/graph.hpp"

namespace gnnerator::core {

/// Counters exposed by PlanCache::stats(). `hits` includes lookups that
/// joined an in-flight compilation of the same key (the plan was still
/// reused, not recompiled); those joins are additionally counted in
/// `single_flight_waits`, so `hits - single_flight_waits` is the number of
/// lookups served instantly from the resident LRU.
struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t single_flight_waits = 0;
};

/// Thread-safe LRU cache of compiled plans, keyed by the full simulation
/// identity: (dataset, model, accelerator config, dataflow options). The
/// 700-line compiler run is the expensive part of a simulation request;
/// repeated requests reuse the shared LoweredModel.
///
/// Compilation is single-flight: concurrent lookups of the same missing key
/// compile once and share the result; distinct keys compile concurrently
/// (the lock is dropped around the compile callback).
class PlanCache {
 public:
  /// `capacity` == 0 disables caching entirely (every lookup compiles).
  explicit PlanCache(std::size_t capacity);

  /// Returns the cached plan for `key`, or runs `compile` and caches its
  /// result. `compile` may throw; the error propagates to every waiter and
  /// nothing is cached.
  std::shared_ptr<const LoweredModel> get_or_compile(
      const std::string& key,
      const std::function<std::shared_ptr<const LoweredModel>()>& compile);

  [[nodiscard]] PlanCacheStats stats() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  using Entry = std::pair<std::string, std::shared_ptr<const LoweredModel>>;

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  /// Most-recently-used first.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  /// Keys being compiled right now; joiners wait on the shared_future.
  std::unordered_map<std::string, std::shared_future<std::shared_ptr<const LoweredModel>>>
      inflight_;
  /// Atomic so observers (serve::Metrics polling cache effectiveness
  /// mid-run) never contend with compiling threads on mutex_.
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> single_flight_waits_{0};
};

/// Builds a cache key with std::to_chars appends: the one serializer of the
/// plan-cache key space and serve's plan-class key space. Doubles print as
/// chars_format::general at 17 significant digits, the same bytes an ostream
/// gives at max_digits10, so configs that differ past the default six
/// digits (clock, bandwidth) never collide on one key. Bools print as 0/1.
class KeyBuilder {
 public:
  /// Starts the key with the identity both key spaces share:
  /// `dataset|model;layer...|config`.
  KeyBuilder(std::string_view dataset_key, const gnn::ModelSpec& model,
             const AcceleratorConfig& config);

  KeyBuilder& operator<<(std::string_view text) {
    key_.append(text);
    return *this;
  }
  KeyBuilder& operator<<(char c) {
    key_.push_back(c);
    return *this;
  }
  KeyBuilder& operator<<(double value);
  template <std::integral T>
  KeyBuilder& operator<<(T value) {
    if constexpr (std::is_same_v<T, bool>) {
      key_.push_back(value ? '1' : '0');
    } else {
      char digits[24];
      key_.append(digits, std::to_chars(digits, digits + sizeof(digits), value).ptr);
    }
    return *this;
  }

  /// The key at exact capacity: every queued request and completion record
  /// holds one, so the builder's growth slack must not travel with it.
  [[nodiscard]] std::string str() const { return std::string(key_); }

 private:
  std::string key_;
};

/// Builds the cache key for one simulation identity. `dataset_key` names
/// the graph (registered dataset id or structural fingerprint);
/// `signature` carries the *resolved* per-stage dataflow choices
/// (Compiler::resolve) — the emitted plan is a pure function of (graph,
/// model, config, sparsity flag, per-stage choices), so requests whose raw
/// options resolve to the same choices (e.g. `block_size = 64` spelled
/// explicitly vs defaulted, or an autotune run that lands on the defaults)
/// share one cache entry.
[[nodiscard]] std::string plan_cache_key(std::string_view dataset_key,
                                         const gnn::ModelSpec& model,
                                         const AcceleratorConfig& config,
                                         const DataflowOptions& options,
                                         const PlanSignature& signature);

/// Structural fingerprint of a graph (FNV-1a over |V|, |E| and the edge
/// list) — the dataset key for graphs not registered under a name.
[[nodiscard]] std::string graph_fingerprint(const graph::Graph& graph);

}  // namespace gnnerator::core
