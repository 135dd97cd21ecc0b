// Cost-oracle calibration benchmark and determinism gate. A mixed fleet
// (2x baseline, 1x nextgen) serves a heterogeneous Poisson mix two ways per
// scheduling policy — with the measurement blend enabled (the default) and
// with the oracle pinned to the analytic prior (blend_measurements = false,
// the pre-oracle behaviour) — after an identical warm-up pass that lets the
// calibrated arm fold real execution cycles into its windows.
//
// Hard invariants, enforced with a non-zero exit:
//   * calibration helps (or at worst ties) — for both SJF ordering and
//     affinity placement, the calibrated arm's p95 latency is <= the
//     analytic-only arm's p95 on the same workload;
//   * byte-determinism — a tiered + fault-injected scenario produces
//     fingerprint-identical completion records AND a byte-identical oracle
//     state (analytic memo + every exec window) between Server::serve and
//     Server::run_reference.
//
//   ./serve_oracle [--json BENCH_serve_oracle.json] [--requests N]
//                  [--rate RPS] [--warm N]
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/faults.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

using namespace gnnerator;

/// FNV-1a over the completion records (same field set as serve_obs).
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

/// Six-way plan-class mix: {cora, citeseer} x {GCN, SAGE-mean, SAGE-pool}.
/// The analytic prior's error differs per class, so mis-ordering and
/// mis-placement are both on the table until measurements land.
std::vector<serve::RequestTemplate> mixed_templates() {
  std::vector<serve::RequestTemplate> mix;
  for (const char* ds_name : {"cora", "citeseer"}) {
    for (const gnn::LayerKind kind :
         {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
      serve::RequestTemplate t;
      t.sim.dataset = ds_name;
      t.sim.model = core::table3_model(kind, *graph::find_dataset(ds_name));
      mix.push_back(std::move(t));
    }
  }
  return mix;
}

serve::Server make_server(const serve::ServerOptions& options) {
  serve::Server server(options);
  for (const char* ds_name : {"cora", "citeseer"}) {
    server.add_dataset(
        graph::make_dataset_by_name(ds_name, /*seed=*/1, /*with_features=*/false));
  }
  return server;
}

struct ArmResult {
  double p95_ms = 0.0;
  double mean_ms = 0.0;
  std::size_t completed = 0;
  double wall_s = 0.0;
};

/// One contest arm: fresh server, warm-up pass (same mix, separate seed) to
/// compile every plan class and — on the calibrated arm — seed the exec
/// windows, then the measured workload. The analytic arm runs the identical
/// warm-up so plan caches and engine state match; only the blend differs.
ArmResult run_arm(serve::SchedulingPolicy policy, bool calibrated, std::size_t warm_requests,
                  std::size_t requests, double rate_rps) {
  serve::ServerOptions options;
  options.policy = policy;
  options.fleet = serve::parse_fleet_spec("2xbaseline,1xnextgen");
  options.cost_oracle.blend_measurements = calibrated;
  serve::Server server = make_server(options);

  serve::PoissonWorkload warm(mixed_templates(), rate_rps, warm_requests, options.clock_ghz,
                              /*seed=*/31);
  (void)server.serve(warm);

  serve::PoissonWorkload workload(mixed_templates(), rate_rps, requests, options.clock_ghz,
                                  /*seed=*/77);
  const auto start = std::chrono::steady_clock::now();
  const serve::ServeReport report = server.serve(workload);
  const auto stop = std::chrono::steady_clock::now();

  ArmResult r;
  r.p95_ms = report.metrics.p95_ms;
  r.mean_ms = report.metrics.mean_ms;
  r.completed = report.metrics.completed;
  r.wall_s = std::chrono::duration<double>(stop - start).count();
  return r;
}

struct LoopResult {
  std::uint64_t records = 0;
  std::uint64_t oracle_state = 0;
};

/// The determinism scenario: SJF over the mixed fleet with two SLO tiers and
/// a crash/recover fault plan — every oracle mutation path (admission blend,
/// dispatch observation, WFQ charge, requeue repricing) is live at once.
LoopResult determinism_run(bool reference, std::size_t requests, double rate_rps) {
  serve::ServerOptions options;
  options.policy = serve::SchedulingPolicy::kSjf;
  options.fleet = serve::parse_fleet_spec("2xbaseline,1xnextgen");
  options.classes = serve::parse_class_spec("interactive:5:4:1,bulk");
  options.default_slo_ms = 8.0;
  options.faults = serve::parse_fault_plan("crash@0.2ms:dev2,recover@1ms:dev2",
                                           options.clock_ghz);
  serve::Server server = make_server(options);
  serve::PoissonWorkload workload(mixed_templates(), rate_rps, requests, options.clock_ghz,
                                  /*seed=*/99);
  const serve::ServeReport report =
      reference ? server.run_reference(workload) : server.serve(workload);
  LoopResult r;
  r.records = records_fingerprint(report);
  r.oracle_state = server.cost_oracle().state_fingerprint();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const std::string json_path = bench::json_path_from_args(argc, argv);
  const auto requests = static_cast<std::size_t>(
      std::max<std::int64_t>(200, args.get_int("requests", 2000)));
  const auto warm_requests = static_cast<std::size_t>(
      std::max<std::int64_t>(32, args.get_int("warm", 256)));
  const double rate = args.get_double("rate", 25'000.0);

  bench::JsonReport json;
  json.set("config.requests", static_cast<std::uint64_t>(requests));
  json.set("config.warm_requests", static_cast<std::uint64_t>(warm_requests));
  json.set("config.rate_rps", rate);

  util::Table table({"policy", "arm", "p95 ms", "mean ms", "completed"});
  bool ok = true;

  // ---- Gate: calibrated p95 <= analytic-only p95, per policy. --------------
  struct Contest {
    const char* name;
    serve::SchedulingPolicy policy;
  };
  for (const Contest c : {Contest{"sjf", serve::SchedulingPolicy::kSjf},
                          Contest{"affinity", serve::SchedulingPolicy::kAffinity}}) {
    const ArmResult analytic =
        run_arm(c.policy, /*calibrated=*/false, warm_requests, requests, rate);
    const ArmResult calibrated =
        run_arm(c.policy, /*calibrated=*/true, warm_requests, requests, rate);
    const bool gate = calibrated.p95_ms <= analytic.p95_ms;
    const std::string prefix = std::string(c.name);
    json.set(prefix + ".analytic.p95_ms", analytic.p95_ms);
    json.set(prefix + ".analytic.mean_ms", analytic.mean_ms);
    json.set(prefix + ".calibrated.p95_ms", calibrated.p95_ms);
    json.set(prefix + ".calibrated.mean_ms", calibrated.mean_ms);
    json.set("gates." + prefix + "_calibrated_p95_le_analytic",
             static_cast<std::uint64_t>(gate ? 1 : 0));
    table.add_row({c.name, "analytic", util::Table::fixed(analytic.p95_ms, 4),
                   util::Table::fixed(analytic.mean_ms, 4), std::to_string(analytic.completed)});
    table.add_row({c.name, "calibrated", util::Table::fixed(calibrated.p95_ms, 4),
                   util::Table::fixed(calibrated.mean_ms, 4),
                   std::to_string(calibrated.completed)});
    if (!gate) {
      std::cerr << "REGRESSION: " << c.name << " calibrated p95 " << calibrated.p95_ms
                << " ms exceeds analytic-only p95 " << analytic.p95_ms << " ms\n";
      ok = false;
    }
  }

  // ---- Gate: loop determinism of records AND oracle state. -----------------
  const LoopResult ref = determinism_run(/*reference=*/true, requests, rate);
  const LoopResult got = determinism_run(/*reference=*/false, requests, rate);
  const bool records_identical = got.records == ref.records;
  const bool oracle_identical = got.oracle_state == ref.oracle_state;
  if (!records_identical) {
    std::cerr << "DIVERGENCE: serve() completion records differ from run_reference\n";
  }
  if (!oracle_identical) {
    std::cerr << "DIVERGENCE: serve() oracle state differs from run_reference\n";
  }
  json.set("determinism.records_fingerprint", ref.records);
  json.set("determinism.oracle_state_fingerprint", ref.oracle_state);
  json.set("gates.records_identical_across_loops",
           static_cast<std::uint64_t>(records_identical ? 1 : 0));
  json.set("gates.oracle_state_identical_across_loops",
           static_cast<std::uint64_t>(oracle_identical ? 1 : 0));
  ok = ok && records_identical && oracle_identical;

  std::cout << table.to_string();
  std::cout << "\ndeterminism: records fp " << ref.records << ", oracle state fp "
            << ref.oracle_state << " (serve == run_reference: "
            << ((records_identical && oracle_identical) ? "yes" : "NO") << ")\n";
  if (!json_path.empty()) {
    if (!json.write(json_path)) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << json_path << "\n";
  }
  return ok ? 0 : 1;
}
