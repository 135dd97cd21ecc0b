#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/kernel.hpp"

namespace gnnerator::sim {

/// One traced event: a component did something interesting at a cycle.
struct TraceEvent {
  Cycle cycle = 0;
  std::string component;
  std::string what;
};

/// Optional event recorder. Hardware models call `emit` unconditionally;
/// recording only happens when a sink is attached, so tracing costs nothing
/// in benchmark runs. Used by tests to assert pipeline interleavings and by
/// the examples to show execution timelines.
class Tracer {
 public:
  /// A disabled tracer drops events.
  Tracer() = default;

  void enable(std::size_t max_events = 1'000'000);
  [[nodiscard]] bool enabled() const { return enabled_; }

  void emit(Cycle cycle, std::string_view component, std::string_view what);

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  void clear() {
    events_.clear();
    dropped_ = 0;
  }

  /// Events emitted past max_events while enabled — silently dropped before
  /// this counter existed; now the truncation is observable. Reset by
  /// enable() and clear(). Events ignored while disabled do not count (a
  /// disabled tracer is a null sink, not a full one).
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] bool truncated() const { return dropped_ > 0; }

  /// Renders "cycle component: what" lines, followed by a truncation note
  /// when events were dropped at the cap.
  [[nodiscard]] std::string to_string() const;

 private:
  bool enabled_ = false;
  std::size_t max_events_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace gnnerator::sim
