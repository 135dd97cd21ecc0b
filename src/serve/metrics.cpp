#include "serve/metrics.hpp"

#include <iomanip>
#include <sstream>

#include "util/check.hpp"

namespace gnnerator::serve {

Metrics::Metrics(double clock_ghz, std::size_t quantile_bound)
    : clock_ghz_(clock_ghz), quantile_bound_(quantile_bound), total_(quantile_bound) {
  GNNERATOR_CHECK_MSG(clock_ghz_ > 0.0, "metrics need a positive clock rate");
}

void Metrics::Bucket::add(double latency_ms, const Outcome& outcome) {
  retries += outcome.retries;
  requeues += outcome.requeues;
  if (outcome.shed || outcome.failed) {
    outcome.failed ? ++failed : ++shed;
    if (outcome.applied_slo_ms > 0.0) {
      ++with_slo;  // a lost request is a missed SLO
    }
    return;
  }
  ++completed;
  latency.add(latency_ms);
  latency_stats.add(latency_ms);
  if (outcome.applied_slo_ms > 0.0) {
    ++with_slo;
    if (latency_ms <= outcome.applied_slo_ms) {
      ++slo_met;
    }
  }
}

void Metrics::add(const Outcome& outcome) {
  const bool lost = outcome.shed || outcome.failed;
  const double latency = lost ? 0.0 : outcome.latency_ms(clock_ghz_);
  total_.add(latency, outcome);
  auto [it, inserted] = classes_.try_emplace(outcome.klass, quantile_bound_);
  it->second.add(latency, outcome);
  if (!lost) {
    queue_stats_.add(outcome.queue_ms(clock_ghz_));
    batch_stats_.add(static_cast<double>(outcome.batch_size));
  }
}

namespace {

double attainment(std::size_t slo_met, std::size_t with_slo) {
  return with_slo > 0 ? static_cast<double>(slo_met) / static_cast<double>(with_slo) : 1.0;
}

}  // namespace

MetricsSummary Metrics::summary(Cycle end_cycle) const {
  MetricsSummary s;
  s.completed = total_.completed;
  s.shed = total_.shed;
  s.failed = total_.failed;
  s.retries = total_.retries;
  s.requeues = total_.requeues;
  if (total_.completed > 0) {
    s.p50_ms = total_.latency.quantile(0.50);
    s.p95_ms = total_.latency.quantile(0.95);
    s.p99_ms = total_.latency.quantile(0.99);
    s.mean_ms = total_.latency_stats.mean();
    s.max_ms = total_.latency_stats.max();
    s.mean_queue_ms = queue_stats_.mean();
    s.mean_batch_size = batch_stats_.mean();
  }
  const double seconds = cycles_to_ms(end_cycle, clock_ghz_) / 1e3;
  s.throughput_rps = seconds > 0.0 ? static_cast<double>(total_.completed) / seconds : 0.0;
  s.slo_attainment = attainment(total_.slo_met, total_.with_slo);
  for (const auto& [name, bucket] : classes_) {
    ClassMetricsSummary c;
    c.name = name;
    c.completed = bucket.completed;
    c.shed = bucket.shed;
    c.failed = bucket.failed;
    if (bucket.completed > 0) {
      c.p50_ms = bucket.latency.quantile(0.50);
      c.p95_ms = bucket.latency.quantile(0.95);
      c.p99_ms = bucket.latency.quantile(0.99);
      c.mean_ms = bucket.latency_stats.mean();
    }
    c.slo_attainment = attainment(bucket.slo_met, bucket.with_slo);
    s.classes.push_back(std::move(c));
  }
  return s;
}

double ServeReport::device_hours_ms() const {
  double total = 0.0;
  for (const DeviceStats& d : devices) {
    total += cycles_to_ms(d.active_cycles, clock_ghz);
  }
  return total;
}

double ServeReport::device_utilization(std::size_t device) const {
  GNNERATOR_CHECK(device < devices.size());
  if (end_cycle == 0) {
    return 0.0;
  }
  return static_cast<double>(devices[device].busy_cycles) / static_cast<double>(end_cycle);
}

double ServeReport::fleet_utilization() const {
  if (devices.empty() || end_cycle == 0) {
    return 0.0;
  }
  Cycle busy = 0;
  for (const DeviceStats& d : devices) {
    busy += d.busy_cycles;
  }
  return static_cast<double>(busy) /
         (static_cast<double>(end_cycle) * static_cast<double>(devices.size()));
}

std::string ServeReport::format() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  os << "served " << metrics.completed << " requests (" << metrics.shed << " shed, "
     << metrics.failed << " failed) in " << duration_ms() << " ms simulated\n";
  os << "latency ms: p50=" << metrics.p50_ms << " p95=" << metrics.p95_ms
     << " p99=" << metrics.p99_ms << " mean=" << metrics.mean_ms
     << " max=" << metrics.max_ms << " (queue mean=" << metrics.mean_queue_ms << ")\n";
  os << "throughput: " << std::setprecision(1) << metrics.throughput_rps
     << " req/s, mean batch " << std::setprecision(2) << metrics.mean_batch_size
     << ", SLO attainment " << std::setprecision(4) << metrics.slo_attainment << "\n";
  os << "queue depth: mean " << std::setprecision(2) << mean_queue_depth << ", max "
     << max_queue_depth << "\n";
  os << "events: " << events << " scheduling points (" << cycles_skipped()
     << " cycles skipped)\n";
  if (metrics.retries > 0 || metrics.requeues > 0 || scale_ups > 0 || scale_downs > 0) {
    os << "elasticity: " << metrics.retries << " retries, " << metrics.requeues
       << " requeues, " << scale_ups << " scale-ups, " << scale_downs
       << " scale-downs, device-hours " << std::setprecision(3) << device_hours_ms()
       << " ms\n";
  }
  if (metrics.classes.size() > 1) {
    for (const ClassMetricsSummary& c : metrics.classes) {
      os << "class " << c.name << ": " << c.completed << " completed, " << c.shed
         << " shed, " << c.failed << " failed, p50=" << std::setprecision(3) << c.p50_ms
         << " p95=" << c.p95_ms << " p99=" << c.p99_ms << " mean=" << c.mean_ms
         << ", SLO attainment " << std::setprecision(4) << c.slo_attainment << "\n";
    }
  }
  os << "devices:";
  for (std::size_t d = 0; d < devices.size(); ++d) {
    os << " [" << d << "]";
    if (!devices[d].klass.empty()) {
      os << " " << devices[d].klass;
    }
    os << " " << std::setprecision(1) << 100.0 * device_utilization(d) << "% ("
       << devices[d].batches << " batches, " << devices[d].requests << " reqs)";
    if (devices[d].downtime_cycles > 0) {
      os << " down " << std::setprecision(3) << cycles_to_ms(devices[d].downtime_cycles, clock_ghz)
         << " ms";
    }
    if (devices[d].crashes > 0) {
      os << " [" << devices[d].crashes << " crashes, " << devices[d].aborted << " aborted]";
    }
  }
  os << "\nplan cache: " << plan_cache.hits << " hits / " << plan_cache.misses
     << " misses / " << plan_cache.evictions << " evictions / "
     << plan_cache.single_flight_waits << " single-flight waits\n";
  if (feature_cache_enabled) {
    os << "feature cache: " << feature_cache.hits << " hits / " << feature_cache.misses
       << " misses / " << feature_cache.evictions << " evictions, hit rate "
       << std::setprecision(4) << feature_cache.hit_rate() << ", "
       << feature_cache.pinned_rows << " pinned rows, " << feature_cache.bytes_saved
       << " bytes saved\n";
  }
  if (!exec_windows.empty()) {
    std::uint64_t observations = 0;
    for (const obs::ExecWindow& w : exec_windows) {
      observations += w.observations;
    }
    os << "exec windows: " << exec_windows.size() << " (plan, device) classes / "
       << observations << " observations\n";
  }
  return os.str();
}

}  // namespace gnnerator::serve
