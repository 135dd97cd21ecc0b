#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/request.hpp"

namespace gnnerator::serve {

/// What a scheduled fault event does to its target device.
enum class FaultKind {
  /// The device dies: every in-flight request is aborted and re-queued
  /// (retry budget + exponential backoff; exhaustion fails the request).
  /// The device serves nothing until a recover event.
  kCrash,
  /// The device returns to service at full speed (slow factors are reset).
  kRecover,
  /// Gray failure: the device keeps serving, but every batch takes
  /// 1/factor as long (factor 0.5 = half speed).
  kSlow,
  /// FGNN-style role switch: the device changes device class (classed
  /// fleets only) — subsequent batches compile/execute under the new
  /// class's config and clock.
  kReclass,
};

/// Smallest slow factor a fault plan accepts. A slower device would
/// stretch a batch's service cycles toward the range where the division in
/// the event loop no longer converts back to a cycle count.
inline constexpr double kMinSlowFactor = 1e-3;

/// One scheduled fault on the server's virtual clock. Fault events are
/// ordinary discrete-event-simulation events: both serving loops process
/// the schedule at identical points, so a fault plan never breaks the
/// serve() == run_reference() bitwise contract.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  /// When the event fires, in server cycles.
  Cycle at = 0;
  /// Target device index (into the fleet as configured at serve start).
  std::size_t device = 0;
  /// kSlow only: speed multiplier, finite and >= kMinSlowFactor (below 1 a
  /// gray failure, above 1 a device coming back faster); service cycles are
  /// divided by it.
  double factor = 1.0;
  /// kReclass only: target device-class name.
  std::string klass;
};

/// A deterministic schedule of fault events, sorted by (cycle, spec order).
struct FaultPlan {
  std::vector<FaultEvent> events;

  [[nodiscard]] bool empty() const { return events.empty(); }
};

/// Parses a fault-plan spec like
///
///   crash@500ms:dev2,slow@1s:dev0x0.5,recover@2s:dev2,reclass@3s:dev1=nextgen
///
/// Events are comma-separated `<kind>@<time>:dev<i>` tokens; `slow` takes a
/// `x<factor>` suffix (finite, >= kMinSlowFactor) and `reclass` a
/// `=<class>` suffix. `<time>` is a non-negative number with an optional
/// unit (`us`, `ms`, `s`; bare numbers are milliseconds), converted to
/// cycles at `clock_ghz`. Parsing is strict (util::parse_double/parse_uint):
/// malformed tokens throw CheckError naming the offending token and its
/// position in the spec.
[[nodiscard]] FaultPlan parse_fault_plan(std::string_view spec, double clock_ghz);

}  // namespace gnnerator::serve
