// Observability-overhead benchmark and determinism gate. One 20k-request
// synthetic trace runs through the serving stack four ways — no recorder,
// null-sink recorder (attached but every stream off), full-span tracing,
// and full tracing through the run_reference loop — and a
// separate fault scenario (probed crash + requeue + autoscaler) exports the
// sample Chrome trace artifact.
//
// Three hard invariants, enforced with a non-zero exit:
//   * near-zero disabled cost — a null-sink recorder adds < 2% wall clock
//     over no recorder at all (min-of-N runs on both sides; the hooks must
//     stay one pointer check);
//   * tracing changes nothing — full-span tracing yields fingerprint-
//     identical completion records to the untraced baseline;
//   * byte-determinism — the exported Chrome trace is byte-identical
//     between Server::serve and Server::run_reference.
//
// The fault scenario must additionally surface the crash instant, the
// aborted busy span, the retry (requeue/resume) spans and the autoscaler
// scale-up track in its recorder streams; its trace is written to
// --trace-out (default serve_obs_sample.trace.json) as the CI artifact.
//
//   ./serve_obs [--json BENCH_serve_obs.json] [--requests N] [--devices N]
//               [--rate RPS] [--repeats N] [--trace-out FILE.json]
//               [--keep-trace]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/recorder.hpp"
#include "serve/faults.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace gnnerator;

/// FNV-1a over the completion records only (no format() mixing: the report
/// text legitimately gains an exec-windows line when a recorder is
/// attached; the *simulation* — every record field — must not change).
std::uint64_t records_fingerprint(const serve::ServeReport& report) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  const auto mix_str = [&](const std::string& s) {
    mix(s.size());
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  for (const serve::Outcome& o : report.outcomes) {
    mix(o.id);
    mix(o.arrival);
    mix(o.dispatch);
    mix(o.completion);
    mix(o.device);
    mix(o.batch_size);
    mix((o.shed ? 1u : 0u) | (o.failed ? 2u : 0u));
    mix(o.retries);
    mix(o.requeues);
    mix(o.service_cycles);
    mix_str(o.class_key);
    mix_str(o.klass);
  }
  mix(report.end_cycle);
  mix(report.events);
  mix(report.max_queue_depth);
  return h;
}

serve::ServerOptions make_options(std::size_t devices,
                                  std::shared_ptr<obs::Recorder> recorder) {
  serve::ServerOptions options;
  options.num_devices = devices;
  options.policy = serve::SchedulingPolicy::kDynamicBatch;
  options.limits.batch_window = serve::ms_to_cycles(1.0, options.clock_ghz);
  options.limits.max_batch = 32;
  options.recorder = std::move(recorder);
  return options;
}

serve::Server make_server(const serve::ServerOptions& options) {
  serve::Server server(options);
  for (const char* ds_name : {"cora", "citeseer"}) {
    server.add_dataset(
        graph::make_dataset_by_name(ds_name, /*seed=*/1, /*with_features=*/false));
  }
  return server;
}

struct RunResult {
  double wall_s = 0.0;
  std::uint64_t fingerprint = 0;
  std::size_t completed = 0;
  std::string trace;    ///< exported Chrome trace (when a recorder was attached)
  std::string metrics;  ///< registry text snapshot
};

/// One measured run: fresh server and recorder, identical warm-up (all plan
/// classes compiled/priced before the clock starts), then the 20k trace.
/// Fresh state on every variant keeps the comparison honest: engine-window
/// templates and plan caches never leak across runs.
RunResult run_once(std::size_t devices, bool reference,
                   const obs::RecorderOptions* rec_options, const std::string& warm_path,
                   const std::string& trace_path) {
  std::shared_ptr<obs::Recorder> recorder;
  if (rec_options != nullptr) {
    recorder = std::make_shared<obs::Recorder>(*rec_options);
  }
  serve::Server server = make_server(make_options(devices, recorder));
  const core::SimulationRequest base;

  serve::StreamingTraceWorkload warm(warm_path, base, 1.0);
  if (reference) {
    (void)server.run_reference(warm);
  } else {
    (void)server.serve(warm);
  }

  serve::StreamingTraceWorkload workload(trace_path, base, 1.0);
  const auto start = std::chrono::steady_clock::now();
  const serve::ServeReport report =
      reference ? server.run_reference(workload) : server.serve(workload);
  const auto stop = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_s = std::chrono::duration<double>(stop - start).count();
  r.fingerprint = records_fingerprint(report);
  r.completed = report.metrics.completed + report.metrics.shed + report.metrics.failed;
  if (recorder != nullptr && recorder->options().any()) {
    r.trace = obs::chrome_trace_string(*recorder);
    r.metrics = recorder->registry().text_snapshot();
  }
  return r;
}

/// Min-of-repeats wall clock (the min filters scheduler noise; both sides
/// of the overhead gate get the same treatment).
RunResult best_of(std::size_t repeats, std::size_t devices,
                  const obs::RecorderOptions* rec_options, const std::string& warm_path,
                  const std::string& trace_path) {
  RunResult best;
  for (std::size_t i = 0; i < repeats; ++i) {
    RunResult r =
        run_once(devices, /*reference=*/false, rec_options, warm_path, trace_path);
    if (i == 0 || r.wall_s < best.wall_s) {
      best = std::move(r);
    }
  }
  return best;
}

/// The fault scenario: probe (fault-free) for a cycle where device 0 is
/// mid-batch, crash into it, recover later, and let the autoscaler grow the
/// fleet under the backlog. Returns the recorder for structure checks and
/// artifact export.
std::shared_ptr<obs::Recorder> fault_scenario_run(std::uint64_t* scale_ups,
                                                  std::uint64_t* retries) {
  serve::ServerOptions options;
  options.num_devices = 1;
  options.policy = serve::SchedulingPolicy::kFifo;
  constexpr std::size_t kRequests = 400;
  const auto workload_for = [&](const serve::ServerOptions& o) {
    return serve::PoissonWorkload(
        [] {
          std::vector<serve::RequestTemplate> mix;
          for (const gnn::LayerKind kind :
               {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
            serve::RequestTemplate t;
            t.sim.dataset = "cora";
            t.sim.model = core::table3_model(kind, *graph::find_dataset("cora"));
            mix.push_back(std::move(t));
          }
          return mix;
        }(),
        /*rate_rps=*/30'000.0, kRequests, o.clock_ghz, /*seed=*/5);
  };

  serve::Server probe = make_server(options);
  auto probe_workload = workload_for(options);
  const serve::ServeReport probe_report = probe.run_reference(probe_workload);
  serve::Cycle crash_at = 0;
  for (const serve::Outcome& o : probe_report.outcomes) {
    if (o.completion > o.dispatch + 2) {
      crash_at = o.dispatch + (o.completion - o.dispatch) / 2;
      break;
    }
  }
  std::ostringstream spec;
  spec << "crash@" << serve::cycles_to_ms(crash_at, options.clock_ghz) << "ms:dev0,recover@"
       << serve::cycles_to_ms(probe_report.end_cycle, options.clock_ghz) + 1.0
       << "ms:dev0";

  serve::ServerOptions faulty = options;
  faulty.faults = serve::parse_fault_plan(spec.str(), options.clock_ghz);
  faulty.autoscale = serve::parse_autoscale_spec("1:3:0.2");
  obs::RecorderOptions rec;
  rec.engine_spans = true;
  auto recorder = std::make_shared<obs::Recorder>(rec);
  faulty.recorder = recorder;
  serve::Server server = make_server(faulty);
  auto workload = workload_for(faulty);
  const serve::ServeReport report = server.serve(workload);
  *scale_ups = report.scale_ups;
  *retries = report.metrics.retries;
  return recorder;
}

constexpr std::string_view kUsage =
    "[--json BENCH_serve_obs.json] [--requests N] [--devices N] [--rate RPS]\n"
    "  [--repeats N] [--trace-out FILE.json] [--keep-trace]";

int run(const util::Args& args) {
  const std::string json_path = args.get("json");
  const auto requests = static_cast<std::size_t>(
      std::max<std::int64_t>(1000, args.get_int("requests", 20'000)));
  const auto devices =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("devices", 4)));
  const double rate = args.get_double("rate", 20'000.0);
  const auto repeats = static_cast<std::size_t>(
      std::max<std::int64_t>(1, args.get_int("repeats", 3)));
  const std::string artifact_path = args.get("trace-out", "serve_obs_sample.trace.json");

  serve::TraceSpec spec;
  spec.num_requests = requests;
  spec.rate_rps = rate;
  spec.seed = 7;
  const std::string trace_path = "serve_obs_trace.csv";
  const std::string warm_path = "serve_obs_warm.csv";
  (void)serve::write_synthetic_trace(trace_path, spec);
  serve::TraceSpec warm_spec = spec;
  warm_spec.num_requests = 256;
  (void)serve::write_synthetic_trace(warm_path, warm_spec);

  util::Table table({"run", "wall s", "sim req/s", "vs baseline"});
  bench::JsonReport json;
  json.set("config.requests", static_cast<std::uint64_t>(requests));
  json.set("config.devices", static_cast<std::uint64_t>(devices));
  json.set("config.rate_rps", rate);
  json.set("config.repeats", static_cast<std::uint64_t>(repeats));

  // ---- Gate (a): a null-sink recorder must cost < 2%. ----------------------
  const RunResult baseline = best_of(repeats, devices, nullptr, warm_path, trace_path);
  obs::RecorderOptions off;
  off.request_spans = false;
  off.device_timeline = false;
  off.engine_spans = false;
  off.exec_windows = false;
  const RunResult disabled = best_of(repeats, devices, &off, warm_path, trace_path);
  // 20 ms absolute grace keeps the 2% relative gate meaningful when the
  // scenario itself runs in tens of milliseconds on a fast box.
  const double overhead = disabled.wall_s / baseline.wall_s - 1.0;
  const bool cheap_when_off =
      disabled.wall_s <= baseline.wall_s * 1.02 + 0.020;
  json.set("baseline.wall_s", baseline.wall_s);
  json.set("disabled.wall_s", disabled.wall_s);
  json.set("disabled.overhead_frac", overhead);
  table.add_row({"no recorder", util::Table::fixed(baseline.wall_s, 3),
                 util::Table::fixed(static_cast<double>(baseline.completed) / baseline.wall_s, 0),
                 "1.000"});
  table.add_row({"null-sink recorder", util::Table::fixed(disabled.wall_s, 3),
                 util::Table::fixed(static_cast<double>(disabled.completed) / disabled.wall_s, 0),
                 util::Table::fixed(disabled.wall_s / baseline.wall_s, 3)});

  // ---- Gate (b): full tracing changes no completion record. ----------------
  obs::RecorderOptions full;
  full.engine_spans = true;
  const RunResult traced =
      run_once(devices, /*reference=*/false, &full, warm_path, trace_path);
  const bool same_records = traced.fingerprint == baseline.fingerprint &&
                            disabled.fingerprint == baseline.fingerprint;
  json.set("traced.wall_s", traced.wall_s);
  json.set("traced.overhead_frac", traced.wall_s / baseline.wall_s - 1.0);
  json.set("traced.trace_bytes", static_cast<std::uint64_t>(traced.trace.size()));
  table.add_row({"full tracing", util::Table::fixed(traced.wall_s, 3),
                 util::Table::fixed(static_cast<double>(traced.completed) / traced.wall_s, 0),
                 util::Table::fixed(traced.wall_s / baseline.wall_s, 3)});

  // ---- Gate (c): trace bytes identical across loops. ------------------------
  const RunResult ref =
      run_once(devices, /*reference=*/true, &full, warm_path, trace_path);
  const bool trace_identical = ref.trace == traced.trace && ref.metrics == traced.metrics;
  if (!trace_identical) {
    std::cerr << "DIVERGENCE: run_reference exported a different trace than serve\n";
  }

  // ---- Fault scenario artifact + structure. ---------------------------------
  std::uint64_t scale_ups = 0;
  std::uint64_t retries = 0;
  const std::shared_ptr<obs::Recorder> faulted = fault_scenario_run(&scale_ups, &retries);
  bool crash_visible = false;
  bool scale_up_visible = false;
  bool aborted_span = false;
  bool retry_span = false;
  for (const obs::Mark& m : faulted->marks()) {
    crash_visible |= m.kind == obs::MarkKind::kCrash;
    scale_up_visible |= m.kind == obs::MarkKind::kScaleUp;
  }
  for (const obs::DeviceSpan& s : faulted->device_spans()) {
    aborted_span |= s.aborted;
  }
  for (const obs::SpanEvent& e : faulted->span_events()) {
    retry_span |= e.phase == obs::SpanPhase::kResume;
  }
  const bool fault_structure =
      crash_visible && scale_up_visible && aborted_span && retry_span &&
      scale_ups > 0 && retries > 0;
  if (!obs::write_chrome_trace_file(*faulted, artifact_path)) {
    std::cerr << "failed to write " << artifact_path << "\n";
    return 1;
  }
  json.set("fault.scale_ups", scale_ups);
  json.set("fault.retries", retries);
  json.set("fault.span_events", static_cast<std::uint64_t>(faulted->span_events().size()));

  json.set("gates.disabled_overhead_lt_2pct",
           static_cast<std::uint64_t>(cheap_when_off ? 1 : 0));
  json.set("gates.records_identical", static_cast<std::uint64_t>(same_records ? 1 : 0));
  json.set("gates.trace_bytes_identical",
           static_cast<std::uint64_t>(trace_identical ? 1 : 0));
  json.set("gates.fault_structure_visible",
           static_cast<std::uint64_t>(fault_structure ? 1 : 0));

  std::cout << table.to_string();
  std::cout << "\nnull-sink overhead: " << util::Table::fixed(overhead * 100.0, 2)
            << "% (gate < 2%)\ntrace artifact: " << artifact_path << " ("
            << faulted->span_events().size() << " span events, "
            << faulted->device_spans().size() << " device spans)\n";
  if (!json_path.empty()) {
    if (!json.write(json_path)) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << json_path << "\n";
  }
  if (!args.get_bool("keep-trace", false)) {
    std::remove(trace_path.c_str());
    std::remove(warm_path.c_str());
  }

  bool ok = true;
  if (!cheap_when_off) {
    std::cerr << "REGRESSION: null-sink recorder costs " << overhead * 100.0
              << "% (" << disabled.wall_s << " s vs " << baseline.wall_s
              << " s baseline); the disabled hooks must stay one pointer check\n";
    ok = false;
  }
  if (!same_records) {
    std::cerr << "DIVERGENCE: tracing changed the completion records\n";
    ok = false;
  }
  if (!trace_identical) {
    ok = false;
  }
  if (!fault_structure) {
    std::cerr << "MISSING STRUCTURE: fault trace lacks crash/scale-up/abort/retry "
              << "(crash=" << crash_visible << " scale_up=" << scale_up_visible
              << " aborted=" << aborted_span << " retry=" << retry_span << ")\n";
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return util::cli_main(argc, argv, kUsage, run); }
