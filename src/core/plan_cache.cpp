#include "core/plan_cache.hpp"

#include <sstream>

#include "util/check.hpp"

namespace gnnerator::core {

PlanCache::PlanCache(std::size_t capacity) : capacity_(capacity) {}

std::shared_ptr<const LoweredModel> PlanCache::get_or_compile(
    const std::string& key,
    const std::function<std::shared_ptr<const LoweredModel>()>& compile) {
  if (capacity_ == 0) {
    return compile();
  }

  std::shared_future<std::shared_ptr<const LoweredModel>> join;
  std::promise<std::shared_ptr<const LoweredModel>> promise;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = index_.find(key); it != index_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
      return it->second->second;
    }
    if (auto it = inflight_.find(key); it != inflight_.end()) {
      // Reused, not recompiled — another thread is on it. Counted before
      // blocking on the future, so observers can see the waiter.
      hits_.fetch_add(1, std::memory_order_relaxed);
      single_flight_waits_.fetch_add(1, std::memory_order_relaxed);
      join = it->second;
    } else {
      misses_.fetch_add(1, std::memory_order_relaxed);
      inflight_.emplace(key, promise.get_future().share());
    }
  }
  if (join.valid()) {
    return join.get();  // rethrows the compiler's error, if any
  }

  std::shared_ptr<const LoweredModel> plan;
  try {
    plan = compile();
    GNNERATOR_CHECK_MSG(plan != nullptr, "plan compile callback returned null");
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(key);
    // A racing compile of the same key may have inserted already; keep the
    // existing entry and share it (both plans are equivalent).
    if (auto it = index_.find(key); it == index_.end()) {
      lru_.emplace_front(key, plan);
      index_.emplace(key, lru_.begin());
      while (lru_.size() > capacity_) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  promise.set_value(plan);
  return plan;
}

PlanCacheStats PlanCache::stats() const {
  PlanCacheStats snapshot;
  snapshot.hits = hits_.load(std::memory_order_relaxed);
  snapshot.misses = misses_.load(std::memory_order_relaxed);
  snapshot.evictions = evictions_.load(std::memory_order_relaxed);
  snapshot.single_flight_waits = single_flight_waits_.load(std::memory_order_relaxed);
  return snapshot;
}

namespace {

class Fnv1a {
 public:
  void mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::string graph_fingerprint(const graph::Graph& graph) {
  Fnv1a fnv;
  fnv.mix(graph.num_nodes());
  fnv.mix(graph.num_edges());
  for (const graph::Edge& e : graph.edges()) {
    fnv.mix((static_cast<std::uint64_t>(e.src) << 32) | e.dst);
  }
  // A coefficient-degree override (sampled subgraphs) changes the plan's
  // aggregation coefficients, so it is part of the structural identity.
  // Plain graphs skip this block and keep their historical fingerprints.
  if (graph.has_coeff_in_degrees()) {
    fnv.mix(0x646567ULL);  // "deg" domain separator
    for (const std::uint32_t d : graph.coeff_in_degrees()) {
      fnv.mix(d);
    }
  }
  std::ostringstream os;
  os << "g" << std::hex << fnv.value();
  return os.str();
}

KeyBuilder::KeyBuilder(std::string_view dataset_key, const gnn::ModelSpec& model,
                       const AcceleratorConfig& config) {
  key_.reserve(256);  // typical keys are 150-250 bytes: one allocation
  *this << dataset_key << '|' << model.name;
  for (const gnn::LayerSpec& layer : model.layers) {
    *this << ';' << static_cast<int>(layer.kind) << ',' << layer.in_dim << ',' << layer.out_dim
          << ',' << static_cast<int>(layer.activation);
  }
  *this << '|' << config.name << ',' << config.clock_ghz << ',' << config.dense.array.rows
        << 'x' << config.dense.array.cols << ',' << static_cast<int>(config.dense.array.dataflow)
        << ',' << config.dense.input_buffer_bytes << ',' << config.dense.weight_buffer_bytes
        << ',' << config.dense.output_buffer_bytes << ',' << config.graph.geometry.num_gpes
        << ',' << config.graph.geometry.simd_lanes << ',' << config.graph.feature_scratch_bytes
        << ',' << config.graph.edge_buffer_bytes << ',' << config.dram.bytes_per_cycle << ','
        << config.dram.latency_cycles << ',' << config.dram.transaction_bytes;
}

KeyBuilder& KeyBuilder::operator<<(double value) {
  char digits[32];
  key_.append(digits, std::to_chars(digits, digits + sizeof(digits), value,
                                    std::chars_format::general, 17)
                          .ptr);
  return *this;
}

std::string plan_cache_key(std::string_view dataset_key, const gnn::ModelSpec& model,
                           const AcceleratorConfig& config, const DataflowOptions& options,
                           const PlanSignature& signature) {
  // The raw dataflow knobs are keyed only through what still reaches the
  // emit pass directly (sparsity elimination); block size, traversal and
  // autotune are fully absorbed by the resolved per-stage signature.
  KeyBuilder key(dataset_key, model, config);
  key << '|' << options.sparsity_elimination << '|' << format_signature(signature);
  return key.str();
}

}  // namespace gnnerator::core
