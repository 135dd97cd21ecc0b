#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/plan_cache.hpp"
#include "obs/exec_window.hpp"
#include "serve/request.hpp"
#include "util/stats.hpp"

namespace gnnerator::serve {

/// Per-request-class (SLO tier) slice of the serving statistics, in
/// milliseconds at the server clock.
struct ClassMetricsSummary {
  std::string name;
  std::size_t completed = 0;
  std::size_t shed = 0;
  /// Requests lost to device faults after exhausting their retry budget.
  std::size_t failed = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  /// SLO attainment within the class; 1.0 when no request carried an SLO.
  double slo_attainment = 1.0;
};

/// Aggregate serving statistics over one Server::serve run, all in
/// milliseconds at the server clock.
struct MetricsSummary {
  std::size_t completed = 0;
  std::size_t shed = 0;
  /// Requests lost to device faults after exhausting their retry budget
  /// (counted separately from shed; completed + shed + failed covers every
  /// admitted request exactly once).
  std::size_t failed = 0;
  /// Fault-induced aborts and requeues summed over all requests (a request
  /// that eventually completed still contributes its aborts here).
  std::uint64_t retries = 0;
  std::uint64_t requeues = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
  double mean_queue_ms = 0.0;
  /// Completed requests per simulated second.
  double throughput_rps = 0.0;
  /// Mean dispatched batch size (over completed requests).
  double mean_batch_size = 0.0;
  /// Completed requests that beat their SLO, over completed+shed with an
  /// SLO; 1.0 when no request carried one.
  double slo_attainment = 1.0;
  /// Per-request-class breakdown, ordered by class name. Class completed /
  /// shed counts always sum to the totals above (every outcome carries
  /// exactly one class).
  std::vector<ClassMetricsSummary> classes;
};

/// Streaming aggregator for per-request outcomes: latency quantiles
/// (util::StreamingQuantiles — exact up to a bound, reservoir beyond),
/// throughput, batch-size and shed accounting. Feed every Outcome once;
/// summarize at end of run.
class Metrics {
 public:
  /// `quantile_bound` is the exact-sample bound of every latency quantile
  /// estimator (global and per class); beyond it the estimator degrades to
  /// the deterministic reservoir (util::StreamingQuantiles).
  explicit Metrics(double clock_ghz, std::size_t quantile_bound = 4096);

  void add(const Outcome& outcome);

  [[nodiscard]] MetricsSummary summary(Cycle end_cycle) const;

 private:
  /// One aggregation bucket (the run total, or one request class).
  struct Bucket {
    explicit Bucket(std::size_t quantile_bound) : latency(quantile_bound) {}

    void add(double latency_ms, const Outcome& outcome);

    std::size_t completed = 0;
    std::size_t shed = 0;
    std::size_t failed = 0;
    std::uint64_t retries = 0;
    std::uint64_t requeues = 0;
    std::size_t with_slo = 0;
    std::size_t slo_met = 0;
    util::StreamingQuantiles latency;
    util::RunningStats latency_stats;
  };

  double clock_ghz_;
  std::size_t quantile_bound_;
  Bucket total_;
  /// Keyed by request class name; std::map so the summary order is
  /// deterministic.
  std::map<std::string, Bucket> classes_;
  util::RunningStats queue_stats_;
  util::RunningStats batch_stats_;
};

/// Effectiveness counters of the pre-sampling feature cache (one per base
/// dataset; the report aggregates them). Hits/misses count feature-row
/// gathers at dispatch time; bytes_saved is the DRAM traffic the cached
/// rows avoided.
struct FeatureCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes_saved = 0;
  /// Rows pinned by the frequency ranking at cache build (never evicted).
  std::uint64_t pinned_rows = 0;
  std::uint64_t budget_bytes = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
  void merge(const FeatureCacheStats& other) {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    bytes_saved += other.bytes_saved;
    pinned_rows += other.pinned_rows;
    budget_bytes += other.budget_bytes;
  }
};

/// Per-device accounting the server maintains while serving.
struct DeviceStats {
  /// Device class name ("baseline", "nextgen", ...); empty on a legacy
  /// homogeneous fleet.
  std::string klass;
  /// Busy time on the server's virtual timeline (device cycles converted
  /// through the class clock on a heterogeneous fleet).
  Cycle busy_cycles = 0;
  std::uint64_t batches = 0;
  std::uint64_t requests = 0;
  /// Cycles the device was in service (active health) — the device-hours
  /// the fleet is charged for. On a static, fault-free fleet this equals
  /// end_cycle.
  Cycle active_cycles = 0;
  /// Cycles spent crashed or scaled out of the fleet.
  Cycle downtime_cycles = 0;
  /// Crash fault events that hit this device.
  std::uint64_t crashes = 0;
  /// In-flight requests a crash aborted on this device.
  std::uint64_t aborted = 0;
};

/// Everything one Server::serve run produced: per-request records (indexed
/// by request id), the aggregate summary, device utilization, queue
/// pressure and plan-cache effectiveness.
struct ServeReport {
  std::vector<Outcome> outcomes;
  MetricsSummary metrics;
  Cycle end_cycle = 0;
  double clock_ghz = 1.0;
  std::vector<DeviceStats> devices;
  core::PlanCacheStats plan_cache;
  double mean_queue_depth = 0.0;
  std::size_t max_queue_depth = 0;
  /// Discrete-event loop iterations (scheduling points simulated). The gap
  /// to end_cycle is what event skipping saved: a cycle-stepped loop would
  /// have ticked end_cycle times.
  std::uint64_t events = 0;
  /// Autoscaler fleet mutations over the run (0 without an autoscaler).
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  /// Pre-sampling feature-cache counters, summed over per-dataset caches.
  /// Zero-valued (and omitted from format()) when no cache is configured.
  FeatureCacheStats feature_cache;
  bool feature_cache_enabled = false;
  /// Measured (plan class, device class) execution-window statistics from
  /// the attached obs::Recorder (EWMA over observed device cycles). Empty
  /// when no recorder is attached or its exec_windows stream is off.
  /// Cumulative across serve runs (the recorder's log persists like the
  /// plan cache).
  std::vector<obs::ExecWindow> exec_windows;

  [[nodiscard]] double duration_ms() const { return cycles_to_ms(end_cycle, clock_ghz); }
  /// Total in-service device time in ms — the capacity bill an elastic
  /// fleet is charged (sum of per-device active_cycles).
  [[nodiscard]] double device_hours_ms() const;
  /// Virtual cycles the event loop jumped over instead of ticking.
  [[nodiscard]] std::uint64_t cycles_skipped() const {
    return end_cycle > events ? end_cycle - events : 0;
  }
  [[nodiscard]] double device_utilization(std::size_t device) const;
  [[nodiscard]] double fleet_utilization() const;

  /// Human-readable multi-line block (examples/CLI).
  [[nodiscard]] std::string format() const;
};

}  // namespace gnnerator::serve
