// Scaling benchmark for the discrete-event serving simulation: a synthetic
// large trace (>=100k requests by default) streams through Server::serve
// and through the trusted Server::run_reference baseline, on fresh servers
// with identical warm-up so both runs start from the same memo state.
// Reports wall time, simulated requests per second, event-loop iterations,
// cycles skipped by event jumping, the streaming reader's buffer high-water
// mark, and the speedup of serve() over the reference loop.
//
// Two hard invariants, enforced with a non-zero exit:
//   * bitwise identity — both runs must produce the identical report,
//     completion record for completion record; serve() is an
//     optimization, never a semantic change;
//   * serve() wins — it must beat run_reference on wall clock (the
//     committed BENCH_serve_scale.json tracks the >=2x target).
//
//   ./serve_scale [--json BENCH_serve_scale.json] [--requests N]
//                 [--devices N] [--rate RPS] [--policy fifo|sjf|batch]
//                 [--keep-trace]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace gnnerator;

/// FNV-1a over every externally visible field of a serve report. Two runs
/// with the same fingerprint produced the same simulation, byte for byte.
std::uint64_t report_fingerprint(const serve::ServeReport& report) {
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
    mix(o.shed ? 1 : 0);
    mix(o.service_cycles);
    mix_str(o.class_key);
    mix_str(o.klass);
  }
  mix(report.end_cycle);
  mix(report.events);
  mix(report.max_queue_depth);
  // format() folds in the metrics summary, per-device stats, queue depth
  // and plan-cache counters at reporting precision.
  mix_str(report.format());
  return h;
}

serve::ServerOptions make_options(serve::SchedulingPolicy policy, std::size_t devices) {
  serve::ServerOptions options;
  options.num_devices = devices;
  options.policy = policy;
  options.limits.batch_window = serve::ms_to_cycles(1.0, options.clock_ghz);
  options.limits.max_batch = 32;
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
  std::uint64_t events = 0;
  std::uint64_t cycles_skipped = 0;
  std::size_t completed = 0;
  std::size_t rows_streamed = 0;
  std::size_t peak_buffer_bytes = 0;
};

/// One measured run: fresh server, identical warm-up (all plan classes
/// compiled/priced before the clock starts), then the big trace streamed
/// through `reference ? run_reference : serve`.
RunResult run_once(const serve::ServerOptions& options, const std::string& warm_path,
                   const std::string& trace_path, bool reference) {
  serve::Server server = make_server(options);
  const core::SimulationRequest base;

  serve::StreamingTraceWorkload warm(warm_path, base, options.clock_ghz);
  if (reference) {
    (void)server.run_reference(warm);
  } else {
    (void)server.serve(warm);
  }

  serve::StreamingTraceWorkload workload(trace_path, base, options.clock_ghz);
  const auto start = std::chrono::steady_clock::now();
  const serve::ServeReport report =
      reference ? server.run_reference(workload) : server.serve(workload);
  const auto stop = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_s = std::chrono::duration<double>(stop - start).count();
  r.fingerprint = report_fingerprint(report);
  r.events = report.events;
  r.cycles_skipped = report.cycles_skipped();
  r.completed = report.metrics.completed + report.metrics.shed;
  r.rows_streamed = workload.rows_streamed();
  r.peak_buffer_bytes = workload.peak_buffer_bytes();
  return r;
}

constexpr std::string_view kUsage =
    "[--json BENCH_serve_scale.json] [--requests N] [--devices N] [--rate RPS]\n"
    "  [--policy fifo|sjf|batch] [--keep-trace]";

int run(const util::Args& args) {
  const std::string json_path = args.get("json");
  const auto requests = static_cast<std::size_t>(
      std::max<std::int64_t>(1000, args.get_int("requests", 150'000)));
  const auto devices =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("devices", 4)));
  const double rate = args.get_double("rate", 20'000.0);
  const std::string policy_name = args.get("policy", "fifo");
  const auto policy = serve::parse_policy(policy_name);
  if (!policy) {
    std::cerr << "unknown --policy '" << policy_name << "'\n";
    return 1;
  }

  // The trace under test plus a small same-mix warm-up trace (every plan
  // class appears, so warm-up absorbs all engine simulation / compilation
  // and the measured section is pure event-loop work).
  serve::TraceSpec spec;
  spec.num_requests = requests;
  spec.rate_rps = rate;
  spec.seed = 7;
  const std::string trace_path = "serve_scale_trace.csv";
  const std::string warm_path = "serve_scale_warm.csv";
  const std::size_t rows = serve::write_synthetic_trace(trace_path, spec);
  serve::TraceSpec warm_spec = spec;
  warm_spec.num_requests = 256;
  (void)serve::write_synthetic_trace(warm_path, warm_spec);
  const auto trace_bytes =
      static_cast<std::uint64_t>(std::filesystem::file_size(trace_path));

  util::Table table({"run", "wall s", "sim req/s", "events", "cycles skipped", "speedup"});
  bench::JsonReport json;
  json.set("trace.rows", static_cast<std::uint64_t>(rows));
  json.set("trace.bytes", trace_bytes);
  json.set("config.devices", static_cast<std::uint64_t>(devices));
  json.set("config.rate_rps", rate);

  const serve::ServerOptions options = make_options(*policy, devices);
  const RunResult ref = run_once(options, warm_path, trace_path, /*reference=*/true);
  json.set("reference.wall_s", ref.wall_s);
  json.set("reference.sim_rps", static_cast<double>(ref.completed) / ref.wall_s);
  json.set("reference.events", ref.events);
  json.set("reference.cycles_skipped", ref.cycles_skipped);
  table.add_row({"reference", util::Table::fixed(ref.wall_s, 3),
                 util::Table::fixed(static_cast<double>(ref.completed) / ref.wall_s, 0),
                 std::to_string(ref.events), std::to_string(ref.cycles_skipped), "1.00"});

  json.set("trace.peak_buffer_bytes", static_cast<std::uint64_t>(ref.peak_buffer_bytes));
  json.set("report.fingerprint", ref.fingerprint);

  const RunResult r = run_once(options, warm_path, trace_path, /*reference=*/false);
  const double speedup = ref.wall_s / r.wall_s;
  const bool identical = r.fingerprint == ref.fingerprint;
  if (!identical) {
    std::cerr << "DIVERGENCE: serve() produced a different report than run_reference\n";
  }
  json.set("serve.wall_s", r.wall_s);
  json.set("serve.sim_rps", static_cast<double>(r.completed) / r.wall_s);
  json.set("serve.events", r.events);
  json.set("serve.cycles_skipped", r.cycles_skipped);
  json.set("serve.speedup_vs_reference", speedup);
  table.add_row({"serve", util::Table::fixed(r.wall_s, 3),
                 util::Table::fixed(static_cast<double>(r.completed) / r.wall_s, 0),
                 std::to_string(r.events), std::to_string(r.cycles_skipped),
                 util::Table::fixed(speedup, 2)});

  const bool faster = speedup > 1.0;
  json.set("gates.reports_identical", static_cast<std::uint64_t>(identical ? 1 : 0));
  json.set("gates.serve_faster_than_reference", static_cast<std::uint64_t>(faster ? 1 : 0));
  json.set("gates.serve_speedup_ge_2", static_cast<std::uint64_t>(speedup >= 2.0 ? 1 : 0));

  std::cout << table.to_string();
  if (!json_path.empty()) {
    if (!json.write(json_path)) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
    std::cout << "\nwrote " << json_path << "\n";
  }
  if (!args.get_bool("keep-trace", false)) {
    std::remove(trace_path.c_str());
    std::remove(warm_path.c_str());
  }
  if (!identical) {
    return 1;
  }
  if (!faster) {
    std::cerr << "REGRESSION: serve() wall clock " << r.wall_s
              << " s is not faster than run_reference " << ref.wall_s << " s\n";
    return 1;
  }
  if (speedup < 2.0) {
    std::cerr << "note: serve() speedup " << speedup << "x is below the 2x target\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::cli_main(argc, argv, kUsage, run); }
