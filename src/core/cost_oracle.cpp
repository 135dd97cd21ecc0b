#include "core/cost_oracle.hpp"

#include <cmath>
#include <limits>
#include <string_view>

#include "core/compiler.hpp"

namespace gnnerator::core {

namespace {

/// FNV-1a, the same fingerprint primitive the serving benches use.
struct Fnv1a {
  std::uint64_t hash = 1469598103934665603ULL;

  void byte(std::uint8_t b) {
    hash ^= b;
    hash *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) {
      byte(static_cast<std::uint8_t>(c));
    }
  }
};

}  // namespace

std::uint64_t CostOracle::analytic(const graph::Dataset& dataset, const SimulationRequest& sim,
                                   const std::string& class_key) {
  if (const auto it = memo_.find(class_key); it != memo_.end()) {
    return it->second;
  }
  const std::uint64_t estimate = compute(dataset, sim);
  memo_.emplace(class_key, estimate);
  pipeline_runs_ += 1;
  return estimate;
}

std::uint64_t CostOracle::compute(const graph::Dataset& dataset, const SimulationRequest& sim) {
  Compiler compiler(dataset.graph, sim.config, sim.dataflow);
  return saturate_cycles(compiler.estimate_cycles(sim.model));
}

std::uint64_t CostOracle::saturate_cycles(double cycles) {
  if (!(cycles >= 1.0)) {
    return 1;  // NaN and sub-cycle estimates both clamp to the floor
  }
  // 2^64 and 2^63 are exactly representable as doubles; any value at or
  // above them would overflow the cast (llround is UB from 2^63 up).
  if (cycles >= 18446744073709551616.0) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  if (cycles >= 9223372036854775808.0) {
    return static_cast<std::uint64_t>(cycles);
  }
  return static_cast<std::uint64_t>(std::llround(cycles));
}

std::uint64_t CostOracle::state_fingerprint() const {
  Fnv1a fp;
  fp.u64(memo_.size());
  for (const auto& [key, estimate] : memo_) {
    fp.str(key);
    fp.u64(estimate);
  }
  return fp.hash;
}

}  // namespace gnnerator::core
