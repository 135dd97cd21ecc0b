#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "core/compiler/ir.hpp"
#include "core/gnnerator.hpp"
#include "graph/datasets.hpp"
#include "obs/exec_window.hpp"

namespace gnnerator::core {

/// Knobs for the measurement blend. Defaults match the analytic-only
/// behaviour on a cold oracle; `blend_measurements = false` pins the oracle
/// to the analytic prior outright (the control arm in bench/serve_oracle).
struct CostOracleOptions {
  /// EWMA smoothing for the measured execution history.
  double ewma_alpha = 0.25;
  /// Pseudo-observation count of the analytic prior: with n measurements the
  /// measured EWMA carries weight n / (n + confidence). Smaller values trust
  /// measurements sooner.
  double confidence = 2.0;
  /// When false, blend() and measured() ignore history entirely — the oracle
  /// still records observations (state stays comparable across arms), but
  /// every estimate is the analytic prior.
  bool blend_measurements = true;
  /// Measured corrections to the compiler cost model's serialisation-tail
  /// terms (identity by default; see compiler::fit_tail_calibration).
  compiler::TailCalibration tail_calibration;
};

/// The one cost estimator every serving consumer asks (ROADMAP: "one
/// measurement-driven cost oracle"). It layers three sources:
///
///   1. the analytic prior — `Compiler::estimate_cycles` at the request's
///      resolved plan, optionally tail-calibrated, memoized per plan-class
///      key exactly like the old serve::JobCostModel (persistent across
///      runs, like the plan cache);
///   2. the measured EWMA — an obs::ExecWindowLog fed by the server at
///      dispatch commit, per (plan class, execution identity). The second
///      key is the plan-class key under the executing device's config, not
///      the device class *name*: two identically-configured classes share
///      measurements, which keeps the identical-class-fleet differential a
///      bitwise no-op. Callers intern each pair once into a dense window id
///      (`intern`) and observe, blend and read by id, so the hot path never
///      builds or compares a key string;
///   3. the last exact measurement — engine executions are deterministic
///      per (plan class, execution identity), so `last_cycles` is not a
///      sample but the true value; affinity placement uses it directly.
///
/// Determinism contract: the oracle is mutated only at event points
/// (admission pricing, dispatch commit) in the one event loop behind both
/// Server::serve and Server::run_reference — `state_fingerprint()` is
/// byte-comparable across loops. The helpers `compute`, `blend` and
/// `measured` never mutate state, and `intern` changes nothing the
/// fingerprint sees (an interned pair stays invisible until observed).
class CostOracle {
 public:
  explicit CostOracle(CostOracleOptions options = {});

  /// Memoized analytic prior for `class_key`: runs the compiler's analysis
  /// pipeline on a miss (counted by pipeline_runs()), returns the cached
  /// value afterwards. Never consults measurements — callers blend
  /// explicitly so schedulers that must stay analytic (public
  /// Server::cost_estimate) share the same memo.
  std::uint64_t analytic(const graph::Dataset& dataset, const SimulationRequest& sim,
                         const std::string& class_key);

  /// The unmemoized analytic estimate: compiler analysis passes at the
  /// oracle's tail calibration, saturated to integer cycles.
  [[nodiscard]] std::uint64_t compute(const graph::Dataset& dataset,
                                      const SimulationRequest& sim) const;

  /// Clamps a double cycle estimate into [1, uint64 max]. llround alone is
  /// UB at and above 2^63 and silently loses integer precision past 2^53 —
  /// a graph large enough to cost > 2^53 cycles must saturate, not wrap.
  [[nodiscard]] static std::uint64_t saturate_cycles(double cycles);

  /// Analytic compiler runs performed so far — the serving tests'
  /// "pipeline runs once per class" counter.
  [[nodiscard]] std::size_t pipeline_runs() const { return pipeline_runs_; }

  /// The dense window id of a (plan class, execution identity) pair.
  obs::ExecWindowLog::Id intern(const std::string& plan_class, const std::string& identity) {
    return windows_.intern(plan_class, identity);
  }

  /// Folds one measured execution into the window's EWMA. Call only at
  /// event points (see class comment).
  void observe(obs::ExecWindowLog::Id window, std::uint64_t cycles);

  /// Confidence-weighted blend of the analytic prior with the measured EWMA:
  /// with n observations of the pair, the measurement carries weight
  /// n / (n + confidence). Returns `analytic_cycles` unchanged while the
  /// pair is unobserved or blending is disabled.
  [[nodiscard]] std::uint64_t blend(std::uint64_t analytic_cycles,
                                    obs::ExecWindowLog::Id window) const;

  /// The last exact measurement for the pair, when one exists and blending
  /// is enabled. Engine executions are deterministic per pair, so this is
  /// the true device-cycle cost, not an estimate.
  [[nodiscard]] std::optional<std::uint64_t> measured(obs::ExecWindowLog::Id window) const;

  [[nodiscard]] const obs::ExecWindowLog& windows() const { return windows_; }
  [[nodiscard]] const CostOracleOptions& options() const { return options_; }

  /// FNV-1a over the full oracle state (analytic memo + every exec window),
  /// in deterministic (sorted) order. Equal fingerprints mean the two
  /// oracles saw the same pricing and observation history.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

 private:
  CostOracleOptions options_;
  /// Analytic memo, ordered so state_fingerprint() iterates deterministically.
  std::map<std::string, std::uint64_t, std::less<>> memo_;
  std::size_t pipeline_runs_ = 0;
  obs::ExecWindowLog windows_;
};

}  // namespace gnnerator::core
