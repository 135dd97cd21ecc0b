#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/gnnerator.hpp"
#include "graph/datasets.hpp"

namespace gnnerator::core {

/// The analytic side of serving cost: `Compiler::estimate_cycles` at the
/// request's resolved plan, memoized per execution-identity key (persistent
/// across runs, like the plan cache). The server prices an identity with it
/// only until the identity has executed; from then on the memoized engine
/// result's cycles are the cost, since the cycle model is deterministic per
/// (plan class, device config).
///
/// Determinism contract: the memo is mutated only at event points of the one
/// event loop behind both Server::serve and Server::run_reference, so
/// `state_fingerprint()` is byte-comparable across loops.
class CostOracle {
 public:
  /// Memoized analytic estimate for `class_key`: runs the compiler's
  /// analysis pipeline on a miss (counted by pipeline_runs()), returns the
  /// cached value afterwards.
  std::uint64_t analytic(const graph::Dataset& dataset, const SimulationRequest& sim,
                         const std::string& class_key);

  /// The unmemoized analytic estimate: compiler analysis passes, saturated
  /// to integer cycles.
  [[nodiscard]] static std::uint64_t compute(const graph::Dataset& dataset,
                                             const SimulationRequest& sim);

  /// Clamps a double cycle estimate into [1, uint64 max]. llround alone is
  /// UB at and above 2^63 and silently loses integer precision past 2^53 —
  /// a graph large enough to cost > 2^53 cycles must saturate, not wrap.
  [[nodiscard]] static std::uint64_t saturate_cycles(double cycles);

  /// Analytic compiler runs performed so far — the serving tests'
  /// "pipeline runs once per class" counter.
  [[nodiscard]] std::size_t pipeline_runs() const { return pipeline_runs_; }

  /// FNV-1a over the analytic memo, in deterministic (sorted) order. Equal
  /// fingerprints mean the two oracles priced the same identities.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

 private:
  /// Ordered so state_fingerprint() iterates deterministically.
  std::map<std::string, std::uint64_t, std::less<>> memo_;
  std::size_t pipeline_runs_ = 0;
};

}  // namespace gnnerator::core
