// Serving-cost benchmark and determinism gate. A mixed fleet (2x baseline,
// 1x nextgen) serves a heterogeneous Poisson mix once per cost-driven
// scheduling policy (SJF ordering, affinity placement), after a warm-up pass
// that executes every plan class, so the measured run prices each class by
// its simulated cycles. It reports each policy's p95 and mean latency; CI
// compares every key it writes against the committed BENCH_serve_oracle.json.
//
// Hard invariant, enforced with a non-zero exit: a tiered + fault-injected
// scenario produces fingerprint-identical completion records AND a
// byte-identical oracle state (the analytic memo) between Server::serve and
// Server::run_reference.
//
//   ./serve_oracle [--json BENCH_serve_oracle.json] [--requests N]
//                  [--rate RPS] [--warm N]
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/faults.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "util/cli.hpp"
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
/// The analytic estimate's error differs per class, so mis-ordering and
/// mis-placement are both on the table until a class has executed.
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

/// One policy's run: fresh server, warm-up pass (same mix, separate seed)
/// that compiles and executes every plan class, then the measured workload.
serve::MetricsSummary run_policy(serve::SchedulingPolicy policy, std::size_t warm_requests,
                                 std::size_t requests, double rate_rps) {
  serve::ServerOptions options;
  options.policy = policy;
  options.fleet = serve::parse_fleet_spec("2xbaseline,1xnextgen");
  serve::Server server = make_server(options);

  serve::PoissonWorkload warm(mixed_templates(), rate_rps, warm_requests, options.clock_ghz,
                              /*seed=*/31);
  (void)server.serve(warm);

  serve::PoissonWorkload workload(mixed_templates(), rate_rps, requests, options.clock_ghz,
                                  /*seed=*/77);
  return server.serve(workload).metrics;
}

struct LoopResult {
  std::uint64_t records = 0;
  std::uint64_t oracle_state = 0;
};

/// The determinism scenario: SJF over the mixed fleet with two SLO tiers and
/// a crash/recover fault plan — every pricing path (admission, WFQ charge,
/// requeue after abort) is live at once.
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

constexpr std::string_view kUsage =
    "[--json BENCH_serve_oracle.json] [--requests N] [--rate RPS] [--warm N]";

int run(const util::Args& args) {
  const std::string json_path = args.get("json");
  const auto requests = static_cast<std::size_t>(
      std::max<std::int64_t>(200, args.get_int("requests", 2000)));
  const auto warm_requests = static_cast<std::size_t>(
      std::max<std::int64_t>(32, args.get_int("warm", 256)));
  const double rate = args.get_double("rate", 25'000.0);

  bench::JsonReport json;
  json.set("config.requests", static_cast<std::uint64_t>(requests));
  json.set("config.warm_requests", static_cast<std::uint64_t>(warm_requests));
  json.set("config.rate_rps", rate);

  util::Table table({"policy", "p95 ms", "mean ms", "completed"});

  struct Policy {
    const char* name;
    serve::SchedulingPolicy policy;
  };
  for (const Policy p : {Policy{"sjf", serve::SchedulingPolicy::kSjf},
                         Policy{"affinity", serve::SchedulingPolicy::kAffinity}}) {
    const serve::MetricsSummary m = run_policy(p.policy, warm_requests, requests, rate);
    const std::string prefix = std::string(p.name);
    json.set(prefix + ".p95_ms", m.p95_ms);
    json.set(prefix + ".mean_ms", m.mean_ms);
    table.add_row({p.name, util::Table::fixed(m.p95_ms, 4), util::Table::fixed(m.mean_ms, 4),
                   std::to_string(m.completed)});
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
  const bool ok = records_identical && oracle_identical;

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

}  // namespace

int main(int argc, char** argv) { return util::cli_main(argc, argv, kUsage, run); }
