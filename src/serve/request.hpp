#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "core/accelerator.hpp"
#include "core/gnnerator.hpp"
#include "util/check.hpp"

namespace gnnerator::serve {

/// Simulated serving time: cycles of the fleet's device clock. The whole
/// serving layer runs in virtual time — arrivals, batching windows, SLO
/// deadlines and completions are all cycle counts, mapped to wall-clock
/// milliseconds only for reporting (ServerOptions::clock_ghz) — so every
/// policy comparison is deterministic and bit-reproducible.
using Cycle = std::uint64_t;

/// Sentinel for "no deadline / no event pending".
inline constexpr Cycle kNoDeadline = ~static_cast<Cycle>(0);

[[nodiscard]] inline double cycles_to_ms(Cycle cycles, double clock_ghz) {
  return static_cast<double>(cycles) / (clock_ghz * 1e6);
}

/// Whether `ms` is a time the cycle clock can hold: finite, non-negative
/// and under 2^63 cycles (so a deadline sum of two such times cannot wrap).
[[nodiscard]] inline bool fits_cycles(double ms, double clock_ghz) {
  const double cycles = ms * clock_ghz * 1e6;
  return cycles >= 0.0 && cycles < 9223372036854775808.0;  // false for NaN
}

/// Whether an SLO setting is usable: finite, and either none (<= 0) or a
/// deadline the clock can hold.
[[nodiscard]] inline bool slo_fits(double slo_ms, double clock_ghz) {
  return std::isfinite(slo_ms) && (slo_ms <= 0.0 || fits_cycles(slo_ms, clock_ghz));
}

/// Text input is range-checked where it is parsed; the check here is the
/// backstop that keeps an unchecked value from reaching the cast, which is
/// undefined for a non-finite or out-of-range double.
[[nodiscard]] inline Cycle ms_to_cycles(double ms, double clock_ghz) {
  GNNERATOR_CHECK_MSG(fits_cycles(ms, clock_ghz), "time " << ms << " ms is past the range of the "
                                                          << clock_ghz << " GHz cycle clock");
  return static_cast<Cycle>(ms * clock_ghz * 1e6);
}

/// One inference request as the workload driver emits it: what to run and
/// when it arrives. The server assigns the id at admission (dense, in
/// arrival order) and fills the class key / cost estimate.
struct Request {
  std::uint64_t id = 0;
  Cycle arrival = 0;
  core::SimulationRequest sim;
  /// Latency SLO in milliseconds at the server clock; <= 0 inherits the
  /// request class's tier SLO, then the server's default
  /// (ServerOptions::default_slo_ms; <= 0 there = none).
  double slo_ms = 0.0;
  /// Request class (SLO tier) name; empty = the first configured class.
  /// Unknown names fail at admission.
  std::string klass;
  /// Sampled mini-batch query: the seed vertex of a k-hop frontier sample
  /// over the request's dataset; < 0 = classic full-graph inference.
  std::int64_t seed = -1;
  /// Per-hop fanout spec (graph::parse_fanout grammar, e.g. "10,5");
  /// required when seed >= 0, ignored otherwise.
  std::string fanout;

  [[nodiscard]] bool is_sampled() const { return seed >= 0; }
};

/// Per-request outcome record, in cycles. `shed` requests carry the cycle
/// the admission controller dropped them in `completion` and no result.
struct Outcome {
  std::uint64_t id = 0;
  Cycle arrival = 0;
  Cycle dispatch = 0;
  Cycle completion = 0;
  std::uint32_t device = 0;
  std::uint32_t batch_size = 1;
  bool shed = false;
  /// The request was aborted by device faults and its retry budget (or SLO
  /// headroom) ran out — a distinct terminal outcome from `shed`, which is
  /// the admission/dispatch controller declining untouched work.
  bool failed = false;
  /// Fault-induced abort count: how many dispatches of this request a
  /// device crash destroyed.
  std::uint32_t retries = 0;
  /// How many times the request re-entered the queue after an abort
  /// (== retries unless the final abort failed it).
  std::uint32_t requeues = 0;
  /// The SLO the admission controller applied (request's own, or the
  /// server default); 0 = none.
  double applied_slo_ms = 0.0;
  /// Device occupancy of the batch this request rode in (0 when shed).
  Cycle service_cycles = 0;
  /// Plan-compatibility class (dataset + model + config + dataflow + mode
  /// + seed) — the unit of batching/coalescing. On a heterogeneous fleet
  /// the config component is the canonical (first) device class's.
  std::string class_key;
  /// Request class (SLO tier) the admission controller resolved.
  std::string klass;
  /// The execution result, shared across a coalesced batch (identical
  /// requests compute identical results). Only retained when
  /// ServerOptions::collect_results is set; null for shed requests.
  std::shared_ptr<const core::ExecutionResult> result;

  [[nodiscard]] double latency_ms(double clock_ghz) const {
    return cycles_to_ms(completion - arrival, clock_ghz);
  }
  [[nodiscard]] double queue_ms(double clock_ghz) const {
    return cycles_to_ms(dispatch - arrival, clock_ghz);
  }
};

}  // namespace gnnerator::serve
