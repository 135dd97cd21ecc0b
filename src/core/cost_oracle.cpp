#include "core/cost_oracle.hpp"

#include <algorithm>
#include <bit>
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
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) {
      byte(static_cast<std::uint8_t>(c));
    }
  }
};

}  // namespace

CostOracle::CostOracle(CostOracleOptions options)
    : options_(options), windows_(options.ewma_alpha) {}

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

std::uint64_t CostOracle::compute(const graph::Dataset& dataset,
                                  const SimulationRequest& sim) const {
  Compiler compiler(dataset.graph, sim.config, sim.dataflow);
  compiler.set_tail_calibration(options_.tail_calibration);
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

void CostOracle::observe(obs::ExecWindowLog::Id window, std::uint64_t cycles) {
  windows_.record(window, cycles);
}

std::uint64_t CostOracle::blend(std::uint64_t analytic_cycles,
                                obs::ExecWindowLog::Id window) const {
  const obs::ExecWindow& w = windows_.window(window);
  if (!options_.blend_measurements || w.observations == 0) {
    return analytic_cycles;
  }
  const double n = static_cast<double>(w.observations);
  const double weight = n / (n + std::max(options_.confidence, 0.0));
  const double blended =
      (1.0 - weight) * static_cast<double>(analytic_cycles) + weight * w.ewma_cycles;
  return saturate_cycles(blended);
}

std::optional<std::uint64_t> CostOracle::measured(obs::ExecWindowLog::Id window) const {
  const obs::ExecWindow& w = windows_.window(window);
  if (!options_.blend_measurements || w.observations == 0) {
    return std::nullopt;
  }
  return w.last_cycles;
}

std::uint64_t CostOracle::state_fingerprint() const {
  Fnv1a fp;
  fp.u64(memo_.size());
  for (const auto& [key, estimate] : memo_) {
    fp.str(key);
    fp.u64(estimate);
  }
  const auto snapshot = windows_.snapshot();
  fp.u64(snapshot.size());
  for (const obs::ExecWindow& w : snapshot) {
    fp.str(w.plan_class);
    fp.str(w.device_class);
    fp.u64(w.observations);
    fp.u64(w.last_cycles);
    fp.f64(w.ewma_cycles);
    fp.u64(w.min_cycles);
    fp.u64(w.max_cycles);
  }
  return fp.hash;
}

}  // namespace gnnerator::core
