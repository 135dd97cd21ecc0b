// gnnbench: one benchmark for the simulator's simulated and host performance.
//
// Each process runs one named workload and prints every metric by name with
// its unit. The last line of standard output is one JSON object,
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}},
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Layers are measured from outside, by timing calls into their
// public functions; nothing inside the library is instrumented. README.md
// lists the workloads, why each was chosen, and what every metric means.
//
//   gnnbench --workload sweep-cold|functional|serve-mixed|serve-sampled
//            [--seed S] [--seconds T] [--trace 0|1] [--out-dir DIR]
//
// --seed seeds dataset generation, trace generation and seed-vertex draws;
// the code under test only ever receives the generated inputs. --seconds is
// the length of the measured phase (set-up, warm-up, checks and the traced
// replay come on top). With --trace 1 the workload is also replayed once
// with spans, written to DIR/<workload>.trace.json (Chrome trace-event JSON).
// Temporary trace CSVs go to DIR as well. The exit code is non-zero when any
// correctness check fails.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baseline/gpu_model.hpp"
#include "baseline/hygcn_model.hpp"
#include "core/accelerator.hpp"
#include "core/compiler.hpp"
#include "core/engine.hpp"
#include "core/executor.hpp"
#include "core/gnnerator.hpp"
#include "core/plan_cache.hpp"
#include "core/report.hpp"
#include "core/runtime.hpp"
#include "gnn/layers.hpp"
#include "gnn/reference.hpp"
#include "gnn/weights.hpp"
#include "graph/datasets.hpp"
#include "graph/sample.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

#ifndef GNNBENCH_BUILD_TYPE
#define GNNBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace gnnerator;
using Clock = std::chrono::steady_clock;

/// Set-up runs at least this many times per run; setup_s is the median.
constexpr std::size_t kMinSetupReps = 3;
/// Set-up is repeated before a measured rep whenever set-ups so far took
/// less than this share of the measured time (see run_reps).
constexpr double kSetupShare = 0.4;
/// Measured reps never drop below this, however short --seconds is.
constexpr std::size_t kMinReps = 3;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Statistics -------------------------------------------------------------

/// q-quantile with linear interpolation between order statistics.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

double geomean_or_zero(const std::vector<double>& values) {
  return values.empty() ? 0.0 : util::geomean(values);
}

/// FNV-1a; digests fold to 48 bits so they survive a round trip through a
/// double exactly.
class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<unsigned char>(v >> (8 * i)));
    }
  }
  void mix(const std::string& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) {
      byte(static_cast<unsigned char>(c));
    }
  }
  [[nodiscard]] std::uint64_t value48() const { return h_ & ((1ull << 48) - 1); }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 1469598103934665603ull;
};

bool same_bits(const gnn::Tensor& a, const gnn::Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ---- Environment stamp -------------------------------------------------------

std::size_t host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

double process_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Stamp {
  std::size_t host_cores = 1;
  std::string build = GNNBENCH_BUILD_TYPE;
  std::string compiler = __VERSION__;
  std::uint64_t seed = 1;
};

// ---- Metric output -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A metric value for the human-readable lines: whole numbers (counts,
/// digests) in full, everything else to six significant digits.
std::string format_value(double v) {
  std::ostringstream os;
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    os << static_cast<std::int64_t>(v);
  } else {
    os << std::setprecision(6) << v;
  }
  return os.str();
}

/// Collects metrics and check outcomes and prints them: one human-readable
/// line per metric as it is recorded, then the closing JSON line.
class Results {
 public:
  void e2e(const std::string& name, double value, const std::string& unit,
           const std::vector<double>& samples = {}) {
    e2e_.push_back({name, value, unit});
    std::cout << std::left << std::setw(34) << name << ' ' << format_value(value) << ' ' << unit;
    if (!samples.empty()) {
      std::cout << "  (q1 " << quantile(samples, 0.25) << ", median " << median(samples)
                << ", q3 " << quantile(samples, 0.75) << ", n " << samples.size() << ')';
    }
    std::cout << '\n';
  }

  void layer(const std::string& name, double value, const std::string& unit) {
    layer_.push_back({name, value, unit});
    std::cout << std::left << std::setw(34) << name << ' ' << format_value(value) << ' ' << unit
              << '\n';
  }

  void note(const std::string& line) { std::cout << line << '\n'; }

  /// Records one attempted operation; a false `ok` counts it as failed and
  /// prints `what` to stderr.
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "CHECK FAILED: " << what << '\n';
    }
  }
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n, const std::string& what) {
    if (n > 0) {
      failed_ += n;
      std::cerr << "FAILED: " << n << ' ' << what << '\n';
    }
  }

  [[nodiscard]] bool correct() const { return failed_ == 0 && attempted_ > 0; }

  void print_json(bool per_layer) const {
    std::ostringstream os;
    util::JsonWriter w(os);
    w.begin_object();
    w.field("correct", correct());
    w.field("attempted", attempted_);
    w.field("failed", failed_);
    w.key("metrics").begin_object();
    for (const Metric& m : per_layer ? layer_ : e2e_) {
      w.key(m.name).begin_object();
      w.field("value", m.value);
      w.field("unit", m.unit);
      w.end_object();
    }
    w.end_object();
    w.end_object();
    std::cout << os.str() << std::endl;
  }

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- Spans -------------------------------------------------------------------

/// In-memory span recorder for the traced replay: each span has a name, the
/// layer (source module) it times, start/end, its parent span and the id of
/// the point or request it belongs to. Spans nest strictly (single thread),
/// so a span's self time is its duration minus its direct children's.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    std::int64_t id = -1;
    /// Work the untraced run does not do (validation, serial replays); kept
    /// out of the trace-overhead comparison.
    bool extra = false;
  };

  /// Runs `f` inside a span and returns its result.
  template <typename F>
  auto span(std::string name, std::string layer, std::int64_t id, F&& f, bool extra = false) {
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(Span{std::move(name), std::move(layer), now_us(), 0.0,
                          open_.empty() ? -1 : open_.back(), id, extra});
    open_.push_back(index);
    struct Closer {
      Tracer* tracer;
      int index;
      ~Closer() {
        tracer->spans_[static_cast<std::size_t>(index)].end_us = tracer->now_us();
        tracer->open_.pop_back();
      }
    } closer{this, index};
    return f();
  }

  /// Seconds of root spans, excluding those marked extra and the extra
  /// spans nested in the rest.
  [[nodiscard]] double comparable_seconds() const {
    double us = 0.0;
    for (const Span& s : spans_) {
      if (s.parent < 0 && !s.extra) {
        us += s.end_us - s.start_us;
      } else if (s.extra && s.parent >= 0 && !spans_[static_cast<std::size_t>(s.parent)].extra) {
        us -= s.end_us - s.start_us;
      }
    }
    return us * 1e-6;
  }

  /// Self seconds per layer.
  [[nodiscard]] std::map<std::string, double> self_by_layer() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_us - spans_[i].start_us;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_us - s.start_us;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].layer] += self[i] * 1e-6;
    }
    return out;
  }

  /// Writes Chrome trace-event JSON (loadable by Perfetto / chrome://tracing).
  bool write(const std::string& path, const std::string& workload, const Stamp& stamp) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    util::JsonWriter w(out);
    w.begin_object();
    w.field("displayTimeUnit", "ms");
    w.key("otherData").begin_object();
    w.field("workload", workload);
    w.field("stamp.host_cores", static_cast<std::uint64_t>(stamp.host_cores));
    w.field("stamp.build", stamp.build);
    w.field("stamp.compiler", stamp.compiler);
    w.field("stamp.seed", stamp.seed);
    w.end_object();
    w.key("traceEvents").begin_array();
    w.begin_object();
    w.field("name", "process_name").field("ph", "M").field("pid", std::uint64_t{1});
    w.key("args").begin_object().field("name", "gnnbench " + workload).end_object();
    w.end_object();
    for (const Span& s : spans_) {
      w.begin_object();
      w.field("name", s.name).field("cat", s.layer).field("ph", "X");
      w.field("ts", s.start_us).field("dur", s.end_us - s.start_us);
      w.field("pid", std::uint64_t{1}).field("tid", std::uint64_t{1});
      w.key("args").begin_object();
      w.field("layer", s.layer);
      w.field("id", static_cast<std::int64_t>(s.id));
      w.field("parent", s.parent < 0 ? std::string("none")
                                     : spans_[static_cast<std::size_t>(s.parent)].name);
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
    out << '\n';
    return static_cast<bool>(out);
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---- Shared workload plumbing ------------------------------------------------

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path out_dir = ".";
  Stamp stamp;
};

/// Host seconds of a workload's set-ups and of its measured reps.
struct Timings {
  std::vector<double> setup_s;
  std::vector<double> rep_s;
  /// Peak RSS once the first set-up and the warm-up rep have run: what one
  /// pass of the workload needs. Later reps only add allocator fragmentation
  /// that grows with their number, which depends on host speed.
  double peak_rss_mb = 0.0;
};

/// Sets the workload up, runs one discarded warm-up rep, then measured reps
/// until their timed regions add up to `seconds` (at least kMinReps).
/// `rep(state, warmup)` returns the host seconds of its timed region.
///
/// Set-up runs at least kMinSetupReps times, each run replacing the state
/// the following reps use: again before a measured rep whenever set-ups so
/// far took less than kSetupShare of the measured time, and after the last
/// rep for any still missing. A shared host has slow stretches lasting
/// seconds; spreading the set-ups over the run keeps one such stretch from
/// timing all of them. A cheap set-up is thereby sampled before every rep.
template <typename State, typename Setup, typename Rep>
Timings run_reps(double seconds, std::optional<State>& state, Setup&& setup, Rep&& rep) {
  Timings t;
  double setup_total = 0.0;
  const auto set_up = [&] {
    state.reset();
    const auto start = Clock::now();
    state.emplace(setup());
    t.setup_s.push_back(since(start));
    setup_total += t.setup_s.back();
  };
  set_up();
  rep(*state, true);
  t.peak_rss_mb = process_peak_rss_mb();
  double measured = 0.0;
  while (t.rep_s.size() < kMinReps || measured < seconds) {
    if (!t.rep_s.empty() && setup_total < kSetupShare * measured) {
      set_up();
    }
    t.rep_s.push_back(rep(*state, false));
    measured += t.rep_s.back();
  }
  while (t.setup_s.size() < kMinSetupReps) {
    set_up();
  }
  return t;
}

/// Host seconds of each op (point) in each measured rep: seconds[op][rep].
using OpTimes = std::vector<std::vector<double>>;

/// Ops per host second: the ops of one rep over the summed fastest measured
/// time of each timed region (a point, or a whole serve call). Noise from
/// other tenants of a shared host only ever adds time, so the fastest rep of
/// each region is the steadiest estimate of its cost, and a stall moves only
/// the region it hit.
double ops_per_s(double ops_per_rep, const OpTimes& seconds) {
  double total = 0.0;
  for (const std::vector<double>& reps : seconds) {
    total += util::min_value(reps);
  }
  return ops_per_rep / total;
}

/// The end-to-end metrics every workload prints. `op_s` holds the measured
/// reps' host seconds per timed region; `sim_ms` the simulated milliseconds
/// of every point or completed request.
void report_e2e(Results& out, const Timings& timings, double ops_per_rep, const OpTimes& op_s,
                const std::vector<double>& sim_ms) {
  out.e2e("setup_s", median(timings.setup_s), "s", timings.setup_s);
  std::vector<double> rates(op_s.front().size());
  for (std::size_t rep = 0; rep < rates.size(); ++rep) {
    double seconds = 0.0;
    for (const std::vector<double>& reps : op_s) {
      seconds += reps[rep];
    }
    rates[rep] = ops_per_rep / seconds;
  }
  out.e2e("ops_per_s", ops_per_s(ops_per_rep, op_s), "1/s", rates);
  out.e2e("peak_rss_mb", timings.peak_rss_mb, "MiB");
  out.e2e("sim_ms_gmean", geomean_or_zero(sim_ms), "sim_ms");
  out.e2e("sim_ms_p99", quantile(sim_ms, 0.99), "sim_ms");
  std::ostringstream os;
  os << "sim_ms p50 " << quantile(sim_ms, 0.5) << ", p999 " << quantile(sim_ms, 0.999)
     << ", max " << quantile(sim_ms, 1.0) << ", n " << sim_ms.size();
  out.note(os.str());
}

/// Generates the named datasets; `seconds` receives the host time it took.
std::vector<std::shared_ptr<const graph::Dataset>> make_datasets(
    const std::vector<std::string>& names, std::uint64_t seed, bool with_features,
    double& seconds) {
  const auto start = Clock::now();
  std::vector<std::shared_ptr<const graph::Dataset>> out;
  for (const std::string& name : names) {
    out.push_back(std::make_shared<const graph::Dataset>(
        graph::make_dataset_by_name(name, seed, with_features)));
  }
  seconds = since(start);
  return out;
}

/// Cycle-weighted aggregate of core::make_report over a set of points.
struct SimAggregate {
  double cycles = 0.0;
  double dense_busy = 0.0;
  double graph_busy = 0.0;
  double dense_util = 0.0;
  double lane_util = 0.0;
  double bw_util = 0.0;
  double dense_stall = 0.0;
  double graph_stall = 0.0;
  double dram_read = 0.0;
  double feature_read = 0.0;
  double edge_read = 0.0;

  void add(const core::ExecutionReport& r) {
    const auto w = static_cast<double>(r.cycles);
    cycles += w;
    dense_busy += r.dense_busy_frac * w;
    graph_busy += r.graph_busy_frac * w;
    dense_util += r.dense_array_util * w;
    lane_util += r.graph_lane_util * w;
    bw_util += r.dram_bw_util * w;
    dense_stall += static_cast<double>(r.dense_stall_token_cycles);
    graph_stall += static_cast<double>(r.graph_stall_token_cycles);
    dram_read += static_cast<double>(r.dram_read_bytes);
    feature_read += static_cast<double>(r.feature_read_bytes);
    edge_read += static_cast<double>(r.edge_read_bytes);
  }

  void print(Results& out) const {
    const double w = cycles > 0.0 ? cycles : 1.0;
    out.layer("sim.dense_busy_frac", dense_busy / w, "ratio");
    out.layer("sim.graph_busy_frac", graph_busy / w, "ratio");
    out.layer("sim.dense_array_util", dense_util / w, "ratio");
    out.layer("sim.graph_lane_util", lane_util / w, "ratio");
    out.layer("sim.dram_bw_util", bw_util / w, "ratio");
    out.layer("sim.dense_stall_token_cycles", dense_stall, "cycles");
    out.layer("sim.graph_stall_token_cycles", graph_stall, "cycles");
    out.layer("sim.dram_read_bytes", dram_read, "bytes");
    out.layer("sim.feature_read_bytes", feature_read, "bytes");
    out.layer("sim.edge_read_bytes", edge_read, "bytes");
  }
};

/// Host-side counters of the layers the point workloads call directly.
struct LayerTimes {
  double resolve_s = 0.0;
  std::uint64_t resolve_calls = 0;
  double compile_s = 0.0;
  std::uint64_t compile_calls = 0;
  std::map<std::string, std::pair<double, std::uint64_t>> compile_by_ds;
  double timing_s = 0.0;
  std::uint64_t timing_calls = 0;
  std::uint64_t cycles_ticked = 0;
  std::uint64_t cycles_skipped = 0;
  core::PlanCacheStats cache;
  // Functional executor (functional workload only).
  double gemm_s = 0.0;
  std::uint64_t gemm_calls = 0;
  double gemm_macs = 0.0;
  double agg_s = 0.0;
  std::uint64_t agg_calls = 0;
  double agg_edges = 0.0;
  double state_s = 0.0;
  std::uint64_t state_calls = 0;
  double serial_s = 0.0;
  double execute_s = 0.0;
  std::uint64_t execute_calls = 0;
  double reference_s = 0.0;
  std::uint64_t reference_calls = 0;
};

/// Host cost of a layer as a rate: calls (or units of work) per host second.
/// A layer the workload does not call reads 0, never a made-up time.
double rate(double work, double seconds) { return seconds > 0.0 ? work / seconds : 0.0; }

/// Per-layer metrics of the core layers (compiler, plan cache, timing
/// kernel, functional executor, reference oracle). Serving workloads call
/// none of these directly and print zero counts.
void print_core_layers(Results& out, const LayerTimes& t, const SimAggregate& sim,
                       std::uint64_t sim_digest) {
  out.layer("compiler.resolve_per_s", rate(static_cast<double>(t.resolve_calls), t.resolve_s),
            "1/s");
  out.layer("compiler.compile_per_s", rate(static_cast<double>(t.compile_calls), t.compile_s),
            "1/s");
  out.layer("compiler.compile_calls", static_cast<double>(t.compile_calls), "count");
  for (const char* ds : {"cora", "citeseer", "pubmed", "flickr"}) {
    const auto it = t.compile_by_ds.find(ds);
    out.layer(std::string("compiler.compile_per_s.") + ds,
              it == t.compile_by_ds.end()
                  ? 0.0
                  : rate(static_cast<double>(it->second.second), it->second.first),
              "1/s");
  }
  const std::uint64_t lookups = t.cache.hits + t.cache.misses;
  out.layer("engine.plan_cache_hits", static_cast<double>(t.cache.hits), "count");
  out.layer("engine.plan_cache_misses", static_cast<double>(t.cache.misses), "count");
  out.layer("engine.plan_cache_hit_ratio",
            lookups == 0 ? 0.0
                         : static_cast<double>(t.cache.hits) / static_cast<double>(lookups),
            "ratio");
  out.layer("sim.run_timing_per_s", rate(static_cast<double>(t.timing_calls), t.timing_s),
            "1/s");
  out.layer("sim.run_timing_calls", static_cast<double>(t.timing_calls), "count");
  out.layer("sim.cycles_ticked", static_cast<double>(t.cycles_ticked), "cycles");
  out.layer("sim.cycles_skipped", static_cast<double>(t.cycles_skipped), "cycles");
  const double simulated = static_cast<double>(t.cycles_ticked + t.cycles_skipped);
  out.layer("sim.skip_ratio",
            simulated == 0.0 ? 0.0 : static_cast<double>(t.cycles_skipped) / simulated, "ratio");
  sim.print(out);
  out.layer("sim.digest", static_cast<double>(sim_digest), "count");
  out.layer("executor.gemm_calls", static_cast<double>(t.gemm_calls), "count");
  out.layer("executor.gemm_gmacs_per_s", rate(t.gemm_macs * 1e-9, t.gemm_s), "GMAC/s");
  out.layer("executor.agg_calls", static_cast<double>(t.agg_calls), "count");
  out.layer("executor.agg_medges_per_s", rate(t.agg_edges * 1e-6, t.agg_s), "Medge/s");
  out.layer("executor.state_per_s", rate(static_cast<double>(t.state_calls), t.state_s), "1/s");
  out.layer("executor.execute_per_s", rate(static_cast<double>(t.execute_calls), t.execute_s),
            "1/s");
  out.layer("executor.parallel_speedup", rate(t.serial_s, t.execute_s), "ratio");
  out.layer("gnn.reference_per_s", rate(static_cast<double>(t.reference_calls), t.reference_s),
            "1/s");
}

/// Per-layer metrics of the serving layer. Point workloads print zeros.
struct ServeLayer {
  double serve_s = 0.0;
  double sample_s = 0.0;
  std::uint64_t sample_calls = 0;
  double trace_write_s = 0.0;
  std::uint64_t trace_rows = 0;
  std::uint64_t trace_peak_buffer_bytes = 0;
  std::uint64_t cost_oracle_runs = 0;
  std::uint64_t fingerprint = 0;
  double capacity_rps = 0.0;
  const serve::ServeReport* report = nullptr;
};

void print_serve_layer(Results& out, const ServeLayer& s) {
  out.layer("graph.sample_frontier_per_s", rate(static_cast<double>(s.sample_calls), s.sample_s),
            "1/s");
  out.layer("graph.sample_frontier_calls", static_cast<double>(s.sample_calls), "count");
  const serve::ServeReport empty;
  const serve::ServeReport& r = s.report != nullptr ? *s.report : empty;
  out.layer("serve.events", static_cast<double>(r.events), "count");
  out.layer("serve.events_per_s", rate(static_cast<double>(r.events), s.serve_s), "1/s");
  out.layer("serve.max_queue_depth", static_cast<double>(r.max_queue_depth), "requests");
  out.layer("serve.mean_queue_depth", r.mean_queue_depth, "requests");
  out.layer("serve.fleet_utilization", r.devices.empty() ? 0.0 : r.fleet_utilization(), "ratio");
  for (std::size_t i = 0; i < 3; ++i) {
    out.layer("serve.device_busy_frac." + std::to_string(i),
              i < r.devices.size() ? r.device_utilization(i) : 0.0, "ratio");
  }
  out.layer("serve.mean_batch", r.metrics.mean_batch_size, "requests");
  out.layer("serve.shed", static_cast<double>(r.metrics.shed), "count");
  out.layer("serve.failed", static_cast<double>(r.metrics.failed), "count");
  out.layer("serve.slo_attainment", r.outcomes.empty() ? 0.0 : r.metrics.slo_attainment,
            "ratio");
  out.layer("serve.capacity_rps", s.capacity_rps, "sim_req/s");
  out.layer("serve.cost_oracle_runs", static_cast<double>(s.cost_oracle_runs), "count");
  out.layer("serve.feature_cache_hit_rate", r.feature_cache.hit_rate(), "ratio");
  out.layer("serve.feature_cache_bytes_saved", static_cast<double>(r.feature_cache.bytes_saved),
            "bytes");
  out.layer("serve.trace_write_rows_per_s",
            rate(static_cast<double>(s.trace_rows), s.trace_write_s), "1/s");
  out.layer("serve.trace_peak_buffer_bytes", static_cast<double>(s.trace_peak_buffer_bytes),
            "bytes");
  out.layer("serve.fingerprint", static_cast<double>(s.fingerprint), "count");
}

/// The paper's values: Fig. 3 gmeans, Table V (GNNerator over HyGCN, GCN)
/// and Fig. 5 gmeans (next-generation variants over the Table IV baseline).
const std::vector<std::pair<std::string, double>> kPaperValues = {
    {"fidelity.fig3_gmean_blocked", 8.0},
    {"fidelity.fig3_gmean_unblocked", 4.2},
    {"fidelity.table5.cora.blocked", 3.8},
    {"fidelity.table5.citeseer.blocked", 3.2},
    {"fidelity.table5.pubmed.blocked", 2.3},
    {"fidelity.table5.cora.unblocked", 1.8},
    {"fidelity.table5.citeseer.unblocked", 0.8},
    {"fidelity.table5.pubmed.unblocked", 1.0},
    {"fidelity.fig5_gmean.2x-graph-mem", 1.1},
    {"fidelity.fig5_gmean.2x-dense", 1.4},
    {"fidelity.fig5_gmean.2x-bw", 1.4},
};

/// Paper-fidelity outputs of the sweep by name (empty on other workloads).
using Fidelity = std::map<std::string, double>;

/// One line per output: the measured value beside the paper's.
void note_fidelity(Results& out, const Fidelity& f) {
  for (const auto& [name, paper] : kPaperValues) {
    const double value = f.at(name);
    std::ostringstream os;
    os << name << ' ' << std::setprecision(4) << value << "x (paper " << paper
       << "x, relative error " << std::setprecision(3) << (value - paper) / paper << ')';
    out.note(os.str());
  }
}

void print_fidelity(Results& out, const Fidelity& f) {
  for (const auto& [name, paper] : kPaperValues) {
    const auto it = f.find(name);
    out.layer(name, it == f.end() ? 0.0 : it->second, "x");
  }
}

std::uint64_t stats_digest(const std::vector<core::ExecutionResult>& results) {
  Fnv fnv;
  for (const core::ExecutionResult& r : results) {
    fnv.mix(r.cycles);
    for (const auto& [name, value] : r.stats.counters()) {
      fnv.mix(name);
      fnv.mix(value);
    }
  }
  return fnv.value48();
}

/// One traced point: the calls Engine::run_impl makes, in its order —
/// resolve, plan_cache_key, get_or_compile wrapping compile — then the
/// timing kernel (timing mode) or the functional steps (functional mode).
struct TracedPlan {
  std::shared_ptr<const core::LoweredModel> plan;
  double compile_s = 0.0;
  bool compiled = false;
};

TracedPlan traced_plan(Tracer& tracer, std::int64_t id, const graph::Dataset& ds,
                       const std::string& dataset_key, const core::SimulationRequest& request,
                       core::PlanCache& cache, LayerTimes& t) {
  core::Compiler compiler(ds.graph, request.config, request.dataflow);
  const auto resolve_start = Clock::now();
  const core::PlanSignature signature =
      tracer.span("resolve", "compiler", id, [&] { return compiler.resolve(request.model); });
  t.resolve_s += since(resolve_start);
  ++t.resolve_calls;
  const std::string key = tracer.span("plan_cache_key", "plan_cache", id, [&] {
    return core::plan_cache_key(dataset_key, request.model, request.config, request.dataflow,
                                signature);
  });
  TracedPlan out;
  out.plan = tracer.span("get_or_compile", "plan_cache", id, [&] {
    return cache.get_or_compile(key, [&] {
      const auto start = Clock::now();
      auto plan = tracer.span("compile", "compiler", id, [&] {
        return std::make_shared<const core::LoweredModel>(compiler.compile(request.model));
      });
      out.compile_s = since(start);
      out.compiled = true;
      return plan;
    });
  });
  if (out.compiled) {
    t.compile_s += out.compile_s;
    ++t.compile_calls;
    auto& [seconds, calls] = t.compile_by_ds[ds.spec.name];
    seconds += out.compile_s;
    ++calls;
  }
  return out;
}

core::ExecutionResult traced_timing(Tracer& tracer, std::int64_t id,
                                    const core::LoweredModel& plan, LayerTimes& t) {
  const auto start = Clock::now();
  core::ExecutionResult result =
      tracer.span("run_timing", "sim", id, [&] { return core::Accelerator::run_timing(plan); });
  t.timing_s += since(start);
  ++t.timing_calls;
  t.cycles_ticked += result.kernel_cycles_ticked;
  t.cycles_skipped += result.kernel_cycles_skipped;
  return result;
}

void write_trace(const RunConfig& cfg, const Tracer& tracer, Results& out) {
  std::filesystem::create_directories(cfg.out_dir);
  const std::filesystem::path path = cfg.out_dir / (cfg.workload + ".trace.json");
  out.check(tracer.write(path.string(), cfg.workload, cfg.stamp),
            "cannot write trace " + path.string());
  out.note("trace: " + path.string());
  std::ostringstream os;
  os << "self time by layer (traced replay):";
  for (const auto& [layer, seconds] : tracer.self_by_layer()) {
    os << ' ' << layer << '=' << std::setprecision(4) << seconds << 's';
  }
  out.note(os.str());
}

// ---- sweep-cold ----------------------------------------------------------------

struct SweepPoint {
  std::string label;
  std::size_t dataset = 0;  ///< index into SweepState::datasets
  gnn::LayerKind kind = gnn::LayerKind::kGcn;
  std::size_t hidden = 16;
  bool blocked = true;
  bool fig3 = false;
  core::SimulationRequest request;
};

constexpr gnn::LayerKind kKinds[] = {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean,
                                     gnn::LayerKind::kSagePool};

core::AcceleratorConfig variant_config(const std::string& variant) {
  const core::AcceleratorConfig base = core::AcceleratorConfig::table4();
  if (variant == "2x-graph-mem") return base.with_double_graph_memory();
  if (variant == "2x-dense") return base.with_double_dense_compute();
  if (variant == "2x-bw") return base.with_double_bandwidth();
  return base;
}

struct SweepState {
  std::vector<std::string> names{"cora", "citeseer", "pubmed", "flickr"};
  std::vector<std::shared_ptr<const graph::Dataset>> datasets;
  std::vector<std::string> fingerprints;
  double make_dataset_s = 0.0;
  std::vector<SweepPoint> points;
};

/// Fig. 3 ({cora,citeseer,pubmed} x {gcn,gsage,gsage-max} x
/// {blocked,unblocked}), Fig. 5 (GCN x 3 datasets x hidden {16,128,1024} x
/// {base,2x-graph-mem,2x-dense,2x-bw}, B=64), and flickr x 3 models, blocked.
std::vector<SweepPoint> sweep_points(const SweepState& s) {
  std::vector<SweepPoint> points;
  const auto add = [&](SweepPoint p) {
    const graph::Dataset& ds = *s.datasets[p.dataset];
    p.request.dataset = ds.spec.name;
    p.request.model = core::table3_model(p.kind, ds.spec, p.hidden);
    points.push_back(std::move(p));
  };
  for (std::size_t d = 0; d < 3; ++d) {
    for (const gnn::LayerKind kind : kKinds) {
      for (const bool blocked : {true, false}) {
        SweepPoint p;
        p.label = "fig3/" + s.names[d] + "-" + std::string(gnn::layer_kind_name(kind)) +
                  (blocked ? "/blocked" : "/unblocked");
        p.dataset = d;
        p.kind = kind;
        p.blocked = blocked;
        p.fig3 = true;
        p.request.dataflow.feature_blocking = blocked;
        add(std::move(p));
      }
    }
  }
  for (const std::size_t hidden : {16, 128, 1024}) {
    for (std::size_t d = 0; d < 3; ++d) {
      for (const char* variant : {"base", "2x-graph-mem", "2x-dense", "2x-bw"}) {
        SweepPoint p;
        p.label = "fig5/" + s.names[d] + "-" + std::to_string(hidden) + "/" + variant;
        p.dataset = d;
        p.hidden = hidden;
        p.request.config = variant_config(variant);
        // B stays at the paper default across variants (as in the Fig. 5
        // bench): a B tracking a wider array would confound the comparison.
        p.request.dataflow.block_size = 64;
        add(std::move(p));
      }
    }
  }
  for (const gnn::LayerKind kind : kKinds) {
    SweepPoint p;
    p.label = "flickr/" + std::string(gnn::layer_kind_name(kind)) + "/blocked";
    p.dataset = 3;
    p.kind = kind;
    add(std::move(p));
  }
  return points;
}

Fidelity sweep_fidelity(const SweepState& s, const std::vector<core::ExecutionResult>& results) {
  std::map<std::string, double> ms;  // label -> simulated ms
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    ms[s.points[i].label] = results[i].milliseconds(s.points[i].request.config.clock_ghz);
  }
  Fidelity f;
  const baseline::GpuModel gpu;
  std::vector<double> blocked;
  std::vector<double> unblocked;
  for (const SweepPoint& p : s.points) {
    if (!p.fig3 || !p.blocked) {
      continue;
    }
    const double gpu_ms = gpu.model_time_s(p.request.model, s.datasets[p.dataset]->spec) * 1e3;
    blocked.push_back(gpu_ms / ms.at(p.label));
    const std::string unblocked_label =
        p.label.substr(0, p.label.size() - std::string("blocked").size()) + "unblocked";
    unblocked.push_back(gpu_ms / ms.at(unblocked_label));
  }
  f["fidelity.fig3_gmean_blocked"] = util::geomean(blocked);
  f["fidelity.fig3_gmean_unblocked"] = util::geomean(unblocked);

  const baseline::HygcnModel hygcn;  // sparsity elimination on (Table V)
  for (const bool is_blocked : {true, false}) {
    for (std::size_t d = 0; d < 3; ++d) {
      const graph::Dataset& ds = *s.datasets[d];
      const gnn::ModelSpec model = core::table3_model(gnn::LayerKind::kGcn, ds.spec);
      const double hygcn_ms = hygcn.milliseconds(hygcn.simulate_cycles(ds.graph, model));
      const std::string label = "fig3/" + s.names[d] + "-gcn/" +
                                (is_blocked ? "blocked" : "unblocked");
      f["fidelity.table5." + s.names[d] + (is_blocked ? ".blocked" : ".unblocked")] =
          hygcn_ms / ms.at(label);
    }
  }
  for (const char* variant : {"2x-graph-mem", "2x-dense", "2x-bw"}) {
    std::vector<double> speedups;
    for (const std::size_t hidden : {16, 128, 1024}) {
      for (std::size_t d = 0; d < 3; ++d) {
        const std::string prefix = "fig5/" + s.names[d] + "-" + std::to_string(hidden) + "/";
        speedups.push_back(ms.at(prefix + "base") / ms.at(prefix + variant));
      }
    }
    f[std::string("fidelity.fig5_gmean.") + variant] = util::geomean(speedups);
  }
  return f;
}

void run_sweep_cold(const RunConfig& cfg, Results& out) {
  std::vector<core::ExecutionResult> reference;  // the warm-up rep's results
  OpTimes point_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  core::PlanCacheStats last_cache;
  std::optional<SweepState> state;
  const auto setup = [&] {
    SweepState s;
    s.datasets = make_datasets(s.names, cfg.seed, /*with_features=*/false, s.make_dataset_s);
    for (const auto& ds : s.datasets) {
      s.fingerprints.push_back(core::graph_fingerprint(ds->graph));
    }
    s.points = sweep_points(s);
    return s;
  };
  const auto rep = [&](const SweepState& s, bool warmup) {
    const auto start = Clock::now();
    core::Engine engine(core::EngineOptions{.num_threads = 1, .plan_cache_capacity = 128});
    for (std::size_t d = 0; d < s.datasets.size(); ++d) {
      engine.add_dataset(s.datasets[d], s.fingerprints[d]);
    }
    std::vector<core::ExecutionResult> results;
    results.reserve(s.points.size());
    point_s.resize(s.points.size());
    for (std::size_t i = 0; i < s.points.size(); ++i) {
      const auto point_start = Clock::now();
      try {
        results.push_back(engine.run(s.points[i].request));
      } catch (const std::exception& e) {
        std::cerr << s.points[i].label << ": " << e.what() << '\n';
        results.emplace_back();  // cycles 0: fails the comparison below
      }
      if (!warmup) {
        point_s[i].push_back(since(point_start));
      }
    }
    const double seconds = since(start);
    last_cache = engine.cache_stats();
    if (warmup) {
      reference = std::move(results);
    } else {
      for (std::size_t i = 0; i < results.size(); ++i) {
        ++attempted;
        if (results[i].cycles == 0 || results[i].cycles != reference[i].cycles) {
          ++failed;
        }
      }
    }
    return seconds;
  };
  const Timings timings = run_reps(cfg.seconds, state, setup, rep);
  const std::vector<double>& rep_s = timings.rep_s;
  const SweepState& s = *state;
  out.attempted(attempted);
  out.failed(failed, "sweep points threw or changed cycles between reps");

  std::vector<double> sim_ms;
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    sim_ms.push_back(reference[i].milliseconds(s.points[i].request.config.clock_ghz));
  }
  report_e2e(out, timings, static_cast<double>(s.points.size()), point_s, sim_ms);

  // Check: every Fig. 3 point simulates to the same cycles and counters
  // under the reference kernel as under the event kernel.
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    const SweepPoint& p = s.points[i];
    if (!p.fig3) {
      continue;
    }
    const graph::Dataset& ds = *s.datasets[p.dataset];
    const core::LoweredModel plan =
        core::compile_model(ds.graph, p.request.model, p.request.config, p.request.dataflow);
    const core::ExecutionResult ref =
        core::Accelerator::run_timing(plan, nullptr, core::TimingKernel::kReference);
    out.check(ref.cycles == reference[i].cycles &&
                  ref.stats.counters() == reference[i].stats.counters(),
              p.label + ": reference kernel differs from the event kernel");
  }
  for (const char* ds : {"cora", "citeseer", "pubmed"}) {
    for (std::size_t i = 0; i < s.points.size(); ++i) {
      if (s.points[i].label == std::string("fig3/") + ds + "-gcn/blocked") {
        out.note(std::string("sweep.fig3_blocked_gcn_cycles.") + ds + " " +
                 std::to_string(reference[i].cycles));
      }
    }
  }
  const Fidelity fidelity = sweep_fidelity(s, reference);
  note_fidelity(out, fidelity);
  const std::uint64_t digest = stats_digest(reference);
  out.note("sim.digest " + std::to_string(digest));
  if (!cfg.trace) {
    return;
  }

  // Traced replay of one rep through the calls Engine::run makes.
  Tracer tracer;
  LayerTimes t;
  SimAggregate sim;
  core::PlanCache cache(128);
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    const SweepPoint& p = s.points[i];
    const auto id = static_cast<std::int64_t>(i);
    tracer.span(p.label, "bench", id, [&] {
      const TracedPlan traced = traced_plan(tracer, id, *s.datasets[p.dataset],
                                            s.fingerprints[p.dataset], p.request, cache, t);
      const core::ExecutionResult result = traced_timing(tracer, id, *traced.plan, t);
      out.check(result.cycles == reference[i].cycles &&
                    result.stats.counters() == reference[i].stats.counters(),
                p.label + ": traced replay differs from Engine::run");
      sim.add(core::make_report(result, *traced.plan));
    });
  }
  t.cache = last_cache;
  const double overhead = tracer.comparable_seconds() / median(rep_s);
  write_trace(cfg, tracer, out);
  out.layer("graph.make_dataset_s", s.make_dataset_s, "s");
  print_core_layers(out, t, sim, digest);
  print_serve_layer(out, ServeLayer{});
  print_fidelity(out, fidelity);
  out.layer("trace_overhead", overhead, "ratio");
}

// ---- functional ------------------------------------------------------------------

struct FunctionalPoint {
  std::string label;
  std::size_t dataset = 0;
  core::SimulationRequest request;
};

struct FunctionalState {
  std::vector<std::string> names{"cora", "citeseer", "pubmed", "flickr"};
  std::vector<std::shared_ptr<const graph::Dataset>> datasets;
  std::vector<std::string> fingerprints;
  double make_dataset_s = 0.0;
  std::vector<FunctionalPoint> points;
  std::unique_ptr<core::Engine> engine;
};

/// Serial replay of FunctionalExecutor's phase order: work grouped by output
/// (layer, stage), phases in key order, program order within a phase.
void serial_replay(Tracer& tracer, std::int64_t id, const core::LoweredModel& plan,
                   core::RuntimeState& state, LayerTimes& t) {
  std::map<std::pair<std::uint32_t, std::int32_t>, std::vector<std::pair<bool, std::uint32_t>>>
      phases;
  for (std::uint32_t i = 0; i < plan.dense_program.size(); ++i) {
    const core::TensorRef o = plan.dense_program[i].out;
    phases[{o.layer, o.stage}].emplace_back(true, i);
  }
  for (std::uint32_t i = 0; i < plan.graph_program.size(); ++i) {
    const core::TensorRef o = plan.agg_stages[plan.graph_program[i].agg_stage].output;
    phases[{o.layer, o.stage}].emplace_back(false, i);
  }
  for (const auto& [key, items] : phases) {
    const bool gemm = items.front().first;
    const std::string name = std::string(gemm ? "run_gemm" : "run_agg") + " L" +
                             std::to_string(key.first) + ".S" + std::to_string(key.second);
    const auto start = Clock::now();
    tracer.span(name, "executor", id, [&] {
      for (const auto& [is_gemm, index] : items) {
        if (is_gemm) {
          state.run_gemm(plan.dense_program[index]);
        } else {
          state.run_agg(plan.graph_program[index]);
        }
      }
    });
    const double seconds = since(start);
    for (const auto& [is_gemm, index] : items) {
      if (is_gemm) {
        t.gemm_macs += static_cast<double>(plan.dense_program[index].shape.macs());
      } else {
        t.agg_edges += static_cast<double>(plan.graph_program[index].num_edges);
      }
    }
    (gemm ? t.gemm_s : t.agg_s) += seconds;
    (gemm ? t.gemm_calls : t.agg_calls) += items.size();
    t.serial_s += seconds;
  }
}

void run_functional(const RunConfig& cfg, Results& out) {
  const std::size_t threads = std::min<std::size_t>(4, cfg.stamp.host_cores);
  std::vector<core::ExecutionResult> reference;  // the warm-up rep's results
  OpTimes point_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  core::PlanCacheStats cache;  // lookups of the measured reps
  std::optional<FunctionalState> state;
  const auto setup = [&] {
    FunctionalState s;
    s.datasets = make_datasets(s.names, cfg.seed, /*with_features=*/true, s.make_dataset_s);
    s.engine = std::make_unique<core::Engine>(
        core::EngineOptions{.num_threads = threads, .plan_cache_capacity = 64});
    for (const auto& ds : s.datasets) {
      s.fingerprints.push_back(core::graph_fingerprint(ds->graph));
      s.engine->add_dataset(ds, s.fingerprints.back());
    }
    // {cora,citeseer,pubmed} x 3 models + flickr-gcn.
    for (std::size_t d = 0; d < s.datasets.size(); ++d) {
      for (const gnn::LayerKind kind : kKinds) {
        if (d == 3 && kind != gnn::LayerKind::kGcn) {
          continue;
        }
        FunctionalPoint p;
        p.label = s.names[d] + "-" + std::string(gnn::layer_kind_name(kind));
        p.dataset = d;
        p.request.mode = core::SimMode::kFunctional;
        p.request.dataset = s.names[d];
        p.request.model = core::table3_model(kind, s.datasets[d]->spec);
        (void)s.engine->plan_for(*s.datasets[d], p.request.model, p.request);
        s.points.push_back(std::move(p));
      }
    }
    return s;
  };
  const auto rep = [&](FunctionalState& s, bool warmup) {
    const core::PlanCacheStats before = s.engine->cache_stats();
    const auto start = Clock::now();
    std::vector<core::ExecutionResult> results;
    results.reserve(s.points.size());
    point_s.resize(s.points.size());
    for (std::size_t i = 0; i < s.points.size(); ++i) {
      const auto point_start = Clock::now();
      try {
        results.push_back(s.engine->run(s.points[i].request));
      } catch (const std::exception& e) {
        std::cerr << s.points[i].label << ": " << e.what() << '\n';
        results.emplace_back();
      }
      if (!warmup) {
        point_s[i].push_back(since(point_start));
      }
    }
    const double seconds = since(start);
    if (warmup) {
      reference = std::move(results);
      return seconds;
    }
    const core::PlanCacheStats after = s.engine->cache_stats();
    cache.hits += after.hits - before.hits;
    cache.misses += after.misses - before.misses;
    for (std::size_t i = 0; i < results.size(); ++i) {
      ++attempted;
      const bool same = results[i].output && reference[i].output &&
                        results[i].cycles == reference[i].cycles &&
                        same_bits(*results[i].output, *reference[i].output);
      if (!same) {
        ++failed;
      }
    }
    return seconds;
  };
  const Timings timings = run_reps(cfg.seconds, state, setup, rep);
  const std::vector<double>& rep_s = timings.rep_s;
  FunctionalState& s = *state;
  core::Engine& engine = *s.engine;
  out.attempted(attempted);
  out.failed(failed, "functional points threw or changed output between reps");

  std::vector<double> sim_ms;
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    sim_ms.push_back(reference[i].milliseconds(s.points[i].request.config.clock_ghz));
  }
  report_e2e(out, timings, static_cast<double>(s.points.size()), point_s, sim_ms);
  out.note("executor.threads " + std::to_string(threads));

  // Check: outputs match the golden reference executor.
  LayerTimes t;
  t.cache = cache;
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    const FunctionalPoint& p = s.points[i];
    const graph::Dataset& ds = *s.datasets[p.dataset];
    const gnn::Tensor features(ds.spec.num_nodes, ds.spec.feature_dim, ds.features);
    const gnn::ModelWeights weights = gnn::init_weights(p.request.model, p.request.weight_seed);
    const auto start = Clock::now();
    const gnn::Tensor golden =
        gnn::ReferenceExecutor(ds.graph).run_model(p.request.model, weights, features);
    t.reference_s += since(start);
    ++t.reference_calls;
    const bool ok = reference[i].output.has_value() &&
                    gnn::Tensor::max_abs_diff(*reference[i].output, golden) <= 1e-3f;
    out.check(ok, p.label + ": output differs from the reference executor by more than 1e-3");
  }
  const std::uint64_t digest = stats_digest(reference);
  out.note("sim.digest " + std::to_string(digest));
  if (!cfg.trace) {
    return;
  }

  // Traced replay: the calls Engine::run makes, plus a serial phase-order
  // replay of run_gemm/run_agg beside the threaded execute.
  Tracer tracer;
  SimAggregate sim;
  util::ThreadPool pool(threads);
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    const FunctionalPoint& p = s.points[i];
    const auto id = static_cast<std::int64_t>(i);
    const graph::Dataset& ds = *s.datasets[p.dataset];
    tracer.span(p.label, "bench", id, [&] {
      const TracedPlan traced = traced_plan(tracer, id, ds, s.fingerprints[p.dataset],
                                            p.request, *engine.plan_cache(), t);
      const core::LoweredModel& plan = *traced.plan;
      const gnn::Tensor features(ds.spec.num_nodes, ds.spec.feature_dim, ds.features);
      const auto state_start = Clock::now();
      const gnn::ModelWeights weights = tracer.span("init_weights", "executor", id, [&] {
        return gnn::init_weights(p.request.model, p.request.weight_seed);
      });
      core::RuntimeState runtime = tracer.span("RuntimeState", "executor", id, [&] {
        return core::RuntimeState(plan, features, weights);
      });
      t.state_s += since(state_start);
      ++t.state_calls;
      const gnn::Tensor serial = tracer.span(
          "serial_replay", "executor", id,
          [&] {
            core::RuntimeState serial_state(plan, features, weights);
            serial_replay(tracer, id, plan, serial_state, t);
            return serial_state.final_output();
          },
          /*extra=*/true);
      const auto execute_start = Clock::now();
      tracer.span("execute", "executor", id,
                  [&] { core::FunctionalExecutor(&pool).execute(plan, runtime); });
      t.execute_s += since(execute_start);
      ++t.execute_calls;
      const core::ExecutionResult result = traced_timing(tracer, id, plan, t);
      const gnn::Tensor& threaded = runtime.final_output();
      out.check(same_bits(serial, threaded),
                p.label + ": serial replay differs from the threaded executor");
      out.check(reference[i].output && same_bits(threaded, *reference[i].output) &&
                    result.cycles == reference[i].cycles,
                p.label + ": traced replay differs from Engine::run");
      sim.add(core::make_report(result, plan));
    });
  }
  const double overhead = tracer.comparable_seconds() / median(rep_s);
  write_trace(cfg, tracer, out);
  out.layer("graph.make_dataset_s", s.make_dataset_s, "s");
  print_core_layers(out, t, sim, digest);
  print_serve_layer(out, ServeLayer{});
  print_fidelity(out, Fidelity{});
  out.layer("trace_overhead", overhead, "ratio");
}

// ---- Serving workloads -----------------------------------------------------------

/// FNV-1a over every outcome field plus the report's format(): two runs with
/// one fingerprint simulated the same thing.
std::uint64_t report_fingerprint(const serve::ServeReport& report) {
  Fnv fnv;
  for (const serve::Outcome& o : report.outcomes) {
    fnv.mix(o.id);
    fnv.mix(o.arrival);
    fnv.mix(o.dispatch);
    fnv.mix(o.completion);
    fnv.mix(o.device);
    fnv.mix(o.batch_size);
    fnv.mix(o.shed ? 1 : 0);
    fnv.mix(o.failed ? 1 : 0);
    fnv.mix(o.retries);
    fnv.mix(o.requeues);
    fnv.mix(o.service_cycles);
    fnv.mix(o.class_key);
    fnv.mix(o.klass);
  }
  fnv.mix(report.end_cycle);
  fnv.mix(report.events);
  fnv.mix(report.format());
  return fnv.value48();
}

/// Outcome-level checks and metrics shared by both serving workloads.
struct ServeRuns {
  Timings timings;
  std::uint64_t fingerprint = 0;
  std::optional<serve::ServeReport> first;  ///< the warm-up rep's report
  std::uint64_t cost_oracle_runs = 0;
};

/// Runs set-up and the reps (run_reps): `serve_once(state)` serves the
/// workload on a fresh server and returns (timed seconds, report,
/// cost-oracle runs).
template <typename State, typename Setup, typename ServeOnce>
ServeRuns serve_reps(const RunConfig& cfg, Results& out, std::size_t submitted,
                     std::optional<State>& state, Setup&& setup, ServeOnce&& serve_once) {
  ServeRuns runs;
  std::uint64_t attempted = 0;
  std::uint64_t lost = 0;
  std::uint64_t mismatched = 0;
  runs.timings = run_reps(cfg.seconds, state, setup, [&](State& s, bool warmup) {
    auto [seconds, report, oracle_runs] = serve_once(s);
    const std::uint64_t fp = report_fingerprint(report);
    const serve::MetricsSummary& m = report.metrics;
    out.check(report.outcomes.size() == submitted &&
                  m.completed + m.shed + m.failed == report.outcomes.size(),
              "completed + shed + failed != submitted");
    if (warmup) {
      runs.fingerprint = fp;
      runs.cost_oracle_runs = oracle_runs;
      runs.first = std::move(report);
    } else {
      attempted += report.outcomes.size();
      lost += m.shed + m.failed;
      mismatched += fp != runs.fingerprint ? 1 : 0;
    }
    return seconds;
  });
  out.attempted(attempted);
  out.failed(lost, "requests shed or failed");
  out.failed(mismatched, "reps whose serve fingerprint differs from the first");
  return runs;
}

std::vector<double> completed_latencies_ms(const serve::ServeReport& report) {
  std::vector<double> ms;
  ms.reserve(report.outcomes.size());
  for (const serve::Outcome& o : report.outcomes) {
    if (!o.shed && !o.failed) {
      ms.push_back(o.latency_ms(report.clock_ghz));
    }
  }
  return ms;
}

/// Removes the files it names when it goes out of scope.
class TempFiles {
 public:
  TempFiles() = default;
  TempFiles(const TempFiles&) = delete;
  TempFiles& operator=(const TempFiles&) = delete;
  ~TempFiles() {
    for (const auto& p : paths) {
      std::error_code ignored;
      std::filesystem::remove(p, ignored);
    }
  }

  std::vector<std::filesystem::path> paths;
};

// ---- serve-mixed -----------------------------------------------------------------

constexpr std::size_t kMixedRequests = 200'000;
constexpr std::size_t kMixedWarmRequests = 512;
constexpr double kMixedRate = 12'000.0;
constexpr std::size_t kCapacityRequests = 20'000;

serve::ServerOptions mixed_options() {
  serve::ServerOptions options;
  options.fleet = serve::parse_fleet_spec("2xbaseline,1xnextgen");
  options.classes = serve::parse_class_spec("interactive:2:4:1,bulk:20:1");
  options.policy = serve::SchedulingPolicy::kAffinity;
  return options;
}

serve::TraceSpec mixed_trace(std::uint64_t seed, std::size_t rows, double rate) {
  serve::TraceSpec spec;
  spec.num_requests = rows;
  spec.rate_rps = rate;
  spec.seed = seed;
  spec.datasets = {"cora", "citeseer"};
  spec.models = {"gcn", "gsage", "gsage-max"};
  spec.classes = {"interactive", "bulk"};
  return spec;
}

struct MixedState {
  std::vector<std::shared_ptr<const graph::Dataset>> datasets;
  double make_dataset_s = 0.0;
  std::string trace_path;
  std::string warm_path;
  double trace_write_s = 0.0;
  /// A warm server built during set-up; the warm-up rep consumes it.
  std::unique_ptr<serve::Server> server;
};

/// A fresh server with the datasets registered and the warm-up trace served
/// (every plan class compiled and priced before the measured run).
std::unique_ptr<serve::Server> warm_mixed_server(const MixedState& s) {
  auto server = std::make_unique<serve::Server>(mixed_options());
  for (const auto& ds : s.datasets) {
    server->add_dataset(*ds);
  }
  serve::StreamingTraceWorkload warm(s.warm_path, core::SimulationRequest{},
                                     server->options().clock_ghz);
  (void)server->serve(warm);
  return server;
}

/// Highest offered rate in [4k, 20k] req/s (to 100 req/s) at which SLO
/// attainment stays >= 0.999, on 20k-request traces of the same mix. The
/// bisection never probes 20k itself: an overloaded fleet builds deep queues
/// that are slow to simulate, and a capacity at or above the top of the
/// range still converges to within 100 req/s of it.
double mixed_capacity(const RunConfig& cfg, const MixedState& s, TempFiles& temps) {
  const std::string path =
      (cfg.out_dir / ("capacity-" + std::to_string(getpid()) + ".csv")).string();
  temps.paths.emplace_back(path);
  const auto meets = [&](double rate) {
    (void)serve::write_synthetic_trace(path, mixed_trace(cfg.seed, kCapacityRequests, rate));
    auto server = warm_mixed_server(s);
    serve::StreamingTraceWorkload workload(path, core::SimulationRequest{},
                                           server->options().clock_ghz);
    return server->serve(workload).metrics.slo_attainment >= 0.999;
  };
  double lo = 4'000.0;
  double hi = 20'000.0;
  if (!meets(lo)) {
    return 0.0;
  }
  while (hi - lo > 100.0) {
    const double mid = 0.5 * (lo + hi);
    (meets(mid) ? lo : hi) = mid;
  }
  return lo;
}

void run_serve_mixed(const RunConfig& cfg, Results& out) {
  std::filesystem::create_directories(cfg.out_dir);
  TempFiles temps;
  const std::string stem = (cfg.out_dir / ("mixed-" + std::to_string(getpid()))).string();
  temps.paths = {stem + ".csv", stem + "-warm.csv"};
  std::optional<MixedState> state;
  const auto setup = [&] {
    MixedState s;
    s.datasets = make_datasets({"cora", "citeseer"}, cfg.seed, false, s.make_dataset_s);
    s.trace_path = stem + ".csv";
    s.warm_path = stem + "-warm.csv";
    // Truncating a file whose earlier contents are still being written back
    // makes some filesystems (ext4) flush them first, a stall that has
    // nothing to do with the code under test; a fresh file avoids it.
    for (const std::string& path : {s.trace_path, s.warm_path}) {
      std::filesystem::remove(path);
    }
    const auto start = Clock::now();
    (void)serve::write_synthetic_trace(s.trace_path,
                                       mixed_trace(cfg.seed, kMixedRequests, kMixedRate));
    s.trace_write_s = since(start);
    (void)serve::write_synthetic_trace(s.warm_path,
                                       mixed_trace(cfg.seed + 1, kMixedWarmRequests, kMixedRate));
    s.server = warm_mixed_server(s);
    return s;
  };
  std::uint64_t peak_buffer = 0;
  ServeRuns runs = serve_reps(cfg, out, kMixedRequests, state, setup, [&](MixedState& s) {
    auto server = s.server ? std::move(s.server) : warm_mixed_server(s);
    serve::StreamingTraceWorkload workload(s.trace_path, core::SimulationRequest{},
                                           server->options().clock_ghz);
    const auto start = Clock::now();
    serve::ServeReport report = server->serve(workload);
    const double seconds = since(start);
    peak_buffer = workload.peak_buffer_bytes();
    return std::make_tuple(seconds, std::move(report),
                           static_cast<std::uint64_t>(server->cost_oracle_runs()));
  });
  const MixedState& s = *state;
  const std::vector<double>& rep_s = runs.timings.rep_s;
  const serve::ServeReport& report = *runs.first;
  report_e2e(out, runs.timings, static_cast<double>(kMixedRequests), {rep_s},
             completed_latencies_ms(report));
  out.note("serve.fingerprint " + std::to_string(runs.fingerprint));
  if (!cfg.trace) {
    return;
  }

  // Traced rep: the server has no internal spans; the span covers the same
  // serve call the untraced reps time.
  Tracer tracer;
  auto server = tracer.span("warm_server", "serve", -1, [&] { return warm_mixed_server(s); },
                            /*extra=*/true);
  serve::StreamingTraceWorkload workload(s.trace_path, core::SimulationRequest{},
                                         server->options().clock_ghz);
  const serve::ServeReport traced =
      tracer.span("serve", "serve", -1, [&] { return server->serve(workload); });
  out.check(report_fingerprint(traced) == runs.fingerprint,
            "traced serve differs from the untraced reps");
  const double capacity = tracer.span(
      "capacity_search", "serve", -1, [&] { return mixed_capacity(cfg, s, temps); },
      /*extra=*/true);
  const double overhead = tracer.comparable_seconds() / median(rep_s);
  write_trace(cfg, tracer, out);

  out.layer("graph.make_dataset_s", s.make_dataset_s, "s");
  LayerTimes t;
  t.cache = report.plan_cache;
  print_core_layers(out, t, SimAggregate{}, 0);
  ServeLayer layer;
  layer.serve_s = median(rep_s);
  layer.trace_write_s = s.trace_write_s;
  layer.trace_rows = kMixedRequests;
  layer.trace_peak_buffer_bytes = peak_buffer;
  layer.cost_oracle_runs = runs.cost_oracle_runs;
  layer.fingerprint = runs.fingerprint;
  layer.capacity_rps = capacity;
  layer.report = &report;
  print_serve_layer(out, layer);
  print_fidelity(out, Fidelity{});
  out.layer("trace_overhead", overhead, "ratio");
}

// ---- serve-sampled ---------------------------------------------------------------

constexpr std::size_t kSampledQueries = 40'000;
constexpr double kSampledRate = 130'000.0;
constexpr char kFanout[] = "10/5";

serve::ServerOptions sampled_options() {
  serve::ServerOptions options;
  options.num_devices = 2;
  options.policy = serve::SchedulingPolicy::kDynamicBatch;
  options.limits.batch_window = serve::ms_to_cycles(0.1, options.clock_ghz);
  options.limits.max_batch = 16;
  serve::FeatureCacheOptions cache;
  cache.budget_bytes = 8ull << 20;
  options.feature_cache = cache;
  return options;
}

serve::SampledQueryWorkload sampled_workload(const graph::Dataset& ds, std::uint64_t seed) {
  std::vector<serve::SampledQueryWorkload::Entry> entries;
  for (const gnn::LayerKind kind : {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
    serve::RequestTemplate t;
    t.sim.dataset = ds.spec.name;
    t.sim.model = core::table3_model(kind, ds.spec);
    t.slo_ms = 10.0;
    entries.push_back(serve::SampledQueryWorkload::Entry{t, &ds, kFanout});
  }
  return serve::SampledQueryWorkload(std::move(entries), kSampledRate, kSampledQueries,
                                     /*clock_ghz=*/1.0, seed);
}

void run_serve_sampled(const RunConfig& cfg, Results& out) {
  struct SampledState {
    std::vector<std::shared_ptr<const graph::Dataset>> datasets;
    double make_dataset_s = 0.0;
    /// A server built during set-up; the warm-up rep consumes it.
    std::unique_ptr<serve::Server> server;
  };
  const auto make_server = [](const graph::Dataset& ds) {
    auto server = std::make_unique<serve::Server>(sampled_options());
    server->add_dataset(ds);
    return server;
  };
  std::optional<SampledState> state;
  const auto setup = [&] {
    SampledState s;
    s.datasets = make_datasets({"cora"}, cfg.seed, false, s.make_dataset_s);
    s.server = make_server(*s.datasets.front());
    return s;
  };
  ServeRuns runs = serve_reps(cfg, out, kSampledQueries, state, setup, [&](SampledState& s) {
    const graph::Dataset& cora = *s.datasets.front();
    auto server = s.server ? std::move(s.server) : make_server(cora);
    serve::SampledQueryWorkload workload = sampled_workload(cora, cfg.seed);
    const auto start = Clock::now();
    serve::ServeReport report = server->serve(workload);
    const double seconds = since(start);
    return std::make_tuple(seconds, std::move(report),
                           static_cast<std::uint64_t>(server->cost_oracle_runs()));
  });
  const graph::Dataset& cora = *state->datasets.front();
  const std::vector<double>& rep_s = runs.timings.rep_s;
  const serve::ServeReport& report = *runs.first;
  report_e2e(out, runs.timings, static_cast<double>(kSampledQueries), {rep_s},
             completed_latencies_ms(report));
  out.note("serve.fingerprint " + std::to_string(runs.fingerprint));
  if (!cfg.trace) {
    return;
  }

  Tracer tracer;
  const auto server = make_server(cora);
  serve::SampledQueryWorkload workload = sampled_workload(cora, cfg.seed);
  const serve::ServeReport traced =
      tracer.span("serve", "serve", -1, [&] { return server->serve(workload); });
  out.check(report_fingerprint(traced) == runs.fingerprint,
            "traced serve differs from the untraced reps");

  // Replay the workload's distinct (model, seed vertex) queries through the
  // sampler, which the server calls once per such query.
  ServeLayer layer;
  const graph::FanoutSpec fanout = graph::parse_fanout(kFanout);
  std::set<std::pair<gnn::LayerKind, std::int64_t>> queries;
  for (const serve::Request& r : sampled_workload(cora, cfg.seed).initial_arrivals()) {
    queries.emplace(r.sim.model.layers.front().kind, r.seed);
  }
  tracer.span(
      "sample_replay", "graph", -1,
      [&] {
        for (const auto& [kind, seed] : queries) {
          util::Prng prng(static_cast<std::uint64_t>(seed) * 0x9E3779B97F4A7C15ull +
                          static_cast<std::uint64_t>(kind));
          const auto start = Clock::now();
          const graph::SampledSubgraph sub = tracer.span(
              "sample_frontier", "graph", seed, [&] {
                return graph::sample_frontier(cora.graph,
                                              {static_cast<graph::NodeId>(seed)}, fanout, prng);
              });
          layer.sample_s += since(start);
          ++layer.sample_calls;
          out.check(!sub.seeds.empty(), "sample_frontier returned no seed");
        }
      },
      /*extra=*/true);
  const double overhead = tracer.comparable_seconds() / median(rep_s);
  write_trace(cfg, tracer, out);

  out.layer("graph.make_dataset_s", state->make_dataset_s, "s");
  LayerTimes t;
  t.cache = report.plan_cache;
  print_core_layers(out, t, SimAggregate{}, 0);
  layer.serve_s = median(rep_s);
  layer.cost_oracle_runs = runs.cost_oracle_runs;
  layer.fingerprint = runs.fingerprint;
  layer.report = &report;
  print_serve_layer(out, layer);
  print_fidelity(out, Fidelity{});
  out.layer("trace_overhead", overhead, "ratio");
}

// ---- main --------------------------------------------------------------------------

const std::map<std::string, void (*)(const RunConfig&, Results&)>& workloads() {
  static const std::map<std::string, void (*)(const RunConfig&, Results&)> kWorkloads = {
      {"sweep-cold", run_sweep_cold},
      {"functional", run_functional},
      {"serve-mixed", run_serve_mixed},
      {"serve-sampled", run_serve_sampled},
  };
  return kWorkloads;
}

int usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: gnnbench --workload sweep-cold|functional|serve-mixed|serve-sampled\n"
               "                [--seed S] [--seconds T] [--trace 0|1] [--out-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  try {
    const util::Args args(argc, argv);
    cfg.workload = args.get("workload");
    const std::int64_t seed = args.get_int("seed", 1);
    cfg.seconds = args.get_double("seconds", 10.0);
    const std::int64_t trace = args.get_int("trace", 0);
    cfg.out_dir = args.get("out-dir", ".");
    if (workloads().count(cfg.workload) == 0) {
      return usage("unknown --workload '" + cfg.workload + "'");
    }
    if (seed < 0 || cfg.seconds <= 0.0 || (trace != 0 && trace != 1)) {
      return usage("--seed must be >= 0, --seconds > 0 and --trace 0 or 1");
    }
    cfg.seed = static_cast<std::uint64_t>(seed);
    cfg.trace = trace == 1;
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  cfg.stamp.host_cores = host_cores();
  cfg.stamp.seed = cfg.seed;

  Results out;
  out.note("gnnbench workload=" + cfg.workload + " seed=" + std::to_string(cfg.seed) +
           " seconds=" + std::to_string(cfg.seconds) + " trace=" + (cfg.trace ? "1" : "0"));
  out.note("stamp.host_cores " + std::to_string(cfg.stamp.host_cores));
  out.note("stamp.build " + cfg.stamp.build);
  out.note("stamp.compiler " + cfg.stamp.compiler);
  out.note("stamp.seed " + std::to_string(cfg.stamp.seed));
  try {
    workloads().at(cfg.workload)(cfg, out);
  } catch (const std::exception& e) {
    std::cerr << "error: " << cfg.workload << ": " << e.what() << '\n';
    return 1;
  }
  out.print_json(cfg.trace);
  return out.correct() ? 0 : 1;
}
