#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/exec_window.hpp"
#include "obs/registry.hpp"

namespace gnnerator::sim {
class Tracer;
}  // namespace gnnerator::sim

namespace gnnerator::obs {

/// DES cycle on the serving timeline (mirrors serve::Cycle — obs/ sits below
/// serve/ in the dependency order, so it cannot include serve headers).
using Cycle = std::uint64_t;

/// One point on a request's span timeline. Every phase is recorded at an
/// event point of the serving loop, so the stream is identical between
/// Server::serve and Server::run_reference.
enum class SpanPhase : std::uint8_t {
  kAdmit,     ///< admitted: record created (at == arrival cycle)
  kSample,    ///< sampled request: k-hop frontier resolved (detail = fingerprint)
  kShed,      ///< terminal: admission or SLO shed
  kDispatch,  ///< placed on a device (device, value = batch size)
  kAbort,     ///< in-flight execution destroyed by a device crash (value = retry #)
  kRequeue,   ///< abort survived the retry budget; waiting out backoff (value = release cycle)
  kResume,    ///< backoff expired; re-entered the queue
  kFail,      ///< terminal: lost to faults / starvation / retried-out SLO
  kComplete,  ///< terminal: served (device, value = service cycles)
};

[[nodiscard]] std::string_view span_phase_name(SpanPhase phase);

struct SpanEvent {
  std::uint64_t request = 0;
  Cycle at = 0;
  SpanPhase phase = SpanPhase::kAdmit;
  std::uint32_t device = 0;  ///< meaningful for kDispatch/kComplete/kAbort
  std::uint32_t tier = 0;    ///< request-class index (kAdmit)
  std::uint64_t value = 0;   ///< phase payload (see SpanPhase comments)
  std::string detail;        ///< plan-class key (kAdmit), frontier fp (kSample), ...
};

/// What a device lane was doing over [begin, end).
enum class DeviceSpanKind : std::uint8_t { kBusy, kCrashed, kParked };

/// One engine-level busy window inside a device busy span (from sim::Tracer
/// gemm/shard start–done pairs), on the server timeline.
struct EngineWindow {
  std::string engine;  ///< tracer component ("dense-engine" / "graph-engine")
  Cycle begin = 0;
  Cycle end = 0;
};

struct DeviceSpan {
  std::uint32_t device = 0;
  DeviceSpanKind kind = DeviceSpanKind::kBusy;
  Cycle begin = 0;
  Cycle end = 0;
  std::uint32_t requests = 0;  ///< batch size (kBusy)
  bool aborted = false;        ///< busy span cut short by a crash
  std::string label;           ///< plan class (kBusy)
  /// Per-engine compute sub-spans, absolute on the server timeline
  /// (RecorderOptions::engine_spans).
  std::vector<EngineWindow> windows;
};

/// Control-plane instants: faults, autoscaler decisions, terminal sheds.
enum class MarkKind : std::uint8_t {
  kShed,
  kFail,
  kCrash,
  kRecover,
  kSlow,
  kReclass,
  kScaleUp,
  kScaleDown,
};

[[nodiscard]] std::string_view mark_kind_name(MarkKind kind);

struct Mark {
  Cycle at = 0;
  MarkKind kind = MarkKind::kShed;
  std::uint32_t device = 0;  ///< target device (faults / scale ops)
  std::uint64_t value = 0;   ///< request id (shed/fail), factor permille (slow)
  std::string detail;
};

struct RecorderOptions {
  /// Per-request span timelines (arrival -> ... -> terminal).
  bool request_spans = true;
  /// Per-device busy/crashed/parked intervals + control marks.
  bool device_timeline = true;
  /// Capture sim::Tracer engine busy windows on each class's first
  /// execution and attach them to busy spans. Opt-in: it re-runs nothing,
  /// but serializes first executions within a dispatch and holds parsed
  /// window templates per class.
  bool engine_spans = false;
  /// Accumulate measured (plan class, device class) execution windows.
  bool exec_windows = true;
  /// Cap across the per-run span-event stream; past it events are dropped
  /// (counted in dropped()) rather than growing without bound.
  std::size_t max_events = 4'000'000;

  /// Anything at all to record? A Recorder whose every stream is off is a
  /// null sink: the server still calls the hooks, which return immediately.
  [[nodiscard]] bool any() const {
    return request_spans || device_timeline || engine_spans || exec_windows;
  }
};

/// Fleet/run context captured at begin_run (and extended by device_added).
struct RunInfo {
  double clock_ghz = 1.0;
  std::vector<std::string> devices;          ///< label per device index
  std::vector<std::string> request_classes;  ///< label per tier index
};

/// The deterministic DES-time observability sink the serving stack records
/// into. One Recorder serves one Server (attach via ServerOptions::recorder);
/// per-run streams (span events, device spans, marks) reset at begin_run,
/// while the Registry and ExecWindowLog persist across runs like production
/// counters and execution history would.
///
/// Every hook is called at an event point with the DES cycle, in the same
/// order by both serving loops — which is why exported traces are
/// byte-identical across serve/run_reference.
class Recorder {
 public:
  explicit Recorder(RecorderOptions options = {});

  void begin_run(RunInfo info);
  void end_run(Cycle end_cycle);
  [[nodiscard]] bool running() const { return running_; }

  // ---- Request spans. -------------------------------------------------------
  void request_event(SpanEvent event);

  // ---- Device timeline. -----------------------------------------------------
  /// A device appended mid-run (autoscaler scale-up past the fleet).
  void device_added(std::string label);
  void open_busy(std::uint32_t device, Cycle begin, std::uint32_t requests,
                 std::string label);
  /// Attach engine windows (absolute cycles) to the device's open busy span.
  void attach_windows(std::uint32_t device, std::vector<EngineWindow> windows);
  void close_busy(std::uint32_t device, Cycle end, bool aborted);
  /// A non-active health interval [begin, end) (crashed / scaled out).
  void health_span(std::uint32_t device, DeviceSpanKind kind, Cycle begin, Cycle end);
  void mark(Mark m);

  // ---- Engine sub-span capture (engine_spans). ------------------------------
  /// Parses gemm/shard start–done pairs out of a tracer's events into
  /// windows in device cycles relative to execution start (fetch events are
  /// skipped: DMA overlaps compute on the same lane).
  [[nodiscard]] static std::vector<EngineWindow> windows_from_tracer(
      const sim::Tracer& tracer);
  /// Memoizes the window template of one execution identity key (parallels
  /// the server's memoized engine results; persists across runs).
  void store_engine_windows(const std::string& exec_key, std::vector<EngineWindow> windows);
  [[nodiscard]] const std::vector<EngineWindow>* engine_windows(
      const std::string& exec_key) const;

  // ---- Execution-window feed (the ExecWindowLog's one writer). -------------
  void record_exec_window(const std::string& plan_class, const std::string& device_class,
                          std::uint64_t cycles);

  // ---- Snapshots. -----------------------------------------------------------
  [[nodiscard]] const std::vector<SpanEvent>& span_events() const { return span_events_; }
  [[nodiscard]] const std::vector<DeviceSpan>& device_spans() const { return device_spans_; }
  [[nodiscard]] const std::vector<Mark>& marks() const { return marks_; }
  [[nodiscard]] const RunInfo& run_info() const { return info_; }
  [[nodiscard]] Cycle end_cycle() const { return end_cycle_; }
  /// Span events dropped past RecorderOptions::max_events this run.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] const ExecWindowLog& exec_window_log() const { return exec_log_; }
  [[nodiscard]] Registry& registry() { return registry_; }
  [[nodiscard]] const Registry& registry() const { return registry_; }
  [[nodiscard]] const RecorderOptions& options() const { return options_; }

 private:
  RecorderOptions options_;
  bool running_ = false;
  RunInfo info_;
  Cycle end_cycle_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<SpanEvent> span_events_;
  std::vector<DeviceSpan> device_spans_;
  std::vector<Mark> marks_;
  /// One open busy span per device index (nullopt when idle).
  std::vector<std::optional<DeviceSpan>> open_busy_;
  /// execution identity key -> engine window template, in device cycles
  /// relative to execution start. Persists across runs (mirrors the
  /// server's memoized engine results).
  std::unordered_map<std::string, std::vector<EngineWindow>> engine_windows_;
  ExecWindowLog exec_log_;
  Registry registry_;
};

}  // namespace gnnerator::obs
