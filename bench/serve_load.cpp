// Load sweep over the serving subsystem: 3 scheduling policies x 3 offered
// load points (0.5x / 1.0x / 2.0x of fleet capacity) x 2 datasets, open-loop
// Poisson arrivals, plus a mixed-fleet capacity-planning scenario
// (2xbaseline + 1xnextgen, the paper's Table IV config next to a Fig. 5
// scaled point) comparing class-blind FIFO against affinity-aware (HEFT)
// placement. Reports tail latency, throughput, batch size and utilization
// per point, and writes the machine-readable JSON CI archives
// (`--json BENCH_serve.json`).
//
// Three hard invariants, enforced with a non-zero exit:
//   * determinism — every point is served twice with the same seed; the two
//     runs must produce identical per-request completion records and
//     identical metrics (serving results may never depend on run order,
//     host speed or wall clock);
//   * batching wins at overload — dynamic batching must beat FIFO on p95
//     latency at the highest load point (the reason the policy exists);
//   * affinity wins on the mixed fleet — affinity-aware placement must beat
//     class-blind FIFO on p95 at the placement-dominated load points (the
//     reason heterogeneous fleets are worth deploying).
//
//   ./serve_load [--json BENCH_serve.json] [--requests N] [--devices N]
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace gnnerator;

struct LoadPoint {
  std::string label;  ///< JSON key fragment
  double rho;         ///< offered load as a fraction of fleet capacity
};

const std::vector<LoadPoint> kLoadPoints = {
    {"rho050", 0.5}, {"rho100", 1.0}, {"rho200", 2.0}};
const std::vector<serve::SchedulingPolicy> kPolicies = {
    serve::SchedulingPolicy::kFifo, serve::SchedulingPolicy::kSjf,
    serve::SchedulingPolicy::kDynamicBatch};

serve::ServerOptions server_options(serve::SchedulingPolicy policy, std::size_t devices) {
  serve::ServerOptions options;
  options.num_devices = devices;
  options.policy = policy;
  options.limits.batch_window = serve::ms_to_cycles(1.0, options.clock_ghz);
  options.limits.max_batch = 32;
  return options;
}

std::vector<serve::RequestTemplate> dataset_mix(const graph::DatasetSpec& spec) {
  std::vector<serve::RequestTemplate> mix;
  for (const gnn::LayerKind kind :
       {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
    serve::RequestTemplate t;
    t.sim.dataset = spec.name;
    t.sim.model = core::table3_model(kind, spec);
    mix.push_back(std::move(t));
  }
  return mix;
}

/// Mean per-request service milliseconds of a uniform mix (actual simulated
/// cycles through the shared bench engine, not the analytic estimate).
double mean_service_ms(const std::vector<serve::RequestTemplate>& mix) {
  double total_ms = 0.0;
  for (const serve::RequestTemplate& t : mix) {
    bench::dataset(t.sim.dataset);  // ensure registration in the bench engine
    const auto result = bench::engine().run(t.sim);
    total_ms += result.milliseconds(t.sim.config.clock_ghz);
  }
  return total_ms / static_cast<double>(mix.size());
}

/// The two runs of one point must match on every externally visible record.
bool reports_identical(const serve::ServeReport& a, const serve::ServeReport& b) {
  if (a.outcomes.size() != b.outcomes.size() || a.end_cycle != b.end_cycle) {
    return false;
  }
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const serve::Outcome& x = a.outcomes[i];
    const serve::Outcome& y = b.outcomes[i];
    if (x.id != y.id || x.arrival != y.arrival || x.dispatch != y.dispatch ||
        x.completion != y.completion || x.device != y.device ||
        x.batch_size != y.batch_size || x.shed != y.shed ||
        x.service_cycles != y.service_cycles || x.class_key != y.class_key ||
        x.klass != y.klass) {
      return false;
    }
  }
  const serve::MetricsSummary& ma = a.metrics;
  const serve::MetricsSummary& mb = b.metrics;
  return ma.completed == mb.completed && ma.shed == mb.shed && ma.p50_ms == mb.p50_ms &&
         ma.p95_ms == mb.p95_ms && ma.p99_ms == mb.p99_ms && ma.mean_ms == mb.mean_ms &&
         ma.throughput_rps == mb.throughput_rps &&
         ma.mean_batch_size == mb.mean_batch_size;
}

serve::ServeReport run_point(const graph::DatasetSpec& spec,
                             const std::vector<serve::RequestTemplate>& mix,
                             serve::SchedulingPolicy policy, std::size_t devices,
                             double rate_rps, std::size_t requests, std::uint64_t seed) {
  serve::Server server(server_options(policy, devices));
  server.add_dataset(graph::make_dataset(spec, /*seed=*/1, /*with_features=*/false));
  serve::PoissonWorkload workload(mix, rate_rps, requests,
                                  server.options().clock_ghz, seed);
  return server.serve(workload);
}

/// Mean per-request service milliseconds of the mix under one device
/// class's config (actual simulated cycles, not the analytic estimate).
double mean_service_ms_under(const std::vector<serve::RequestTemplate>& mix,
                             const core::AcceleratorConfig& config) {
  double total_ms = 0.0;
  for (const serve::RequestTemplate& t : mix) {
    bench::dataset(t.sim.dataset);  // ensure registration in the bench engine
    core::SimulationRequest sim = t.sim;
    sim.config = config;
    const auto result = bench::engine().run(sim);
    total_ms += result.milliseconds(config.clock_ghz);
  }
  return total_ms / static_cast<double>(mix.size());
}

serve::ServeReport run_mixed_point(const std::vector<serve::DeviceClass>& fleet,
                                   const std::vector<serve::RequestTemplate>& mix,
                                   serve::SchedulingPolicy policy, double rate_rps,
                                   std::size_t requests, std::uint64_t seed) {
  serve::ServerOptions options;
  options.fleet = fleet;
  options.policy = policy;
  serve::Server server(options);
  for (const char* ds_name : {"cora", "citeseer"}) {
    server.add_dataset(
        graph::make_dataset(*graph::find_dataset(ds_name), /*seed=*/1,
                            /*with_features=*/false));
  }
  serve::PoissonWorkload workload(mix, rate_rps, requests, options.clock_ghz, seed);
  return server.serve(workload);
}

/// The mixed-fleet capacity-planning scenario: 2x Table IV baseline + 1x
/// Fig. 5 nextgen behind one scheduler, at placement-dominated load points
/// (0.3x / 0.5x of aggregate capacity). Class-blind FIFO hands work to the
/// first idle device in index order — the slow baselines — while affinity
/// places each request by earliest estimated finish. Returns false if
/// affinity stops beating FIFO on p95 at any point, or if any run is
/// nondeterministic.
bool run_mixed_fleet_scenario(util::Table& table, bench::JsonReport& json,
                              std::size_t requests, std::uint64_t seed,
                              bool& deterministic) {
  const std::vector<serve::DeviceClass> fleet =
      serve::parse_fleet_spec("2xbaseline,1xnextgen");
  std::vector<serve::RequestTemplate> mix;
  for (const char* ds_name : {"cora", "citeseer"}) {
    const graph::DatasetSpec spec = *graph::find_dataset(ds_name);
    for (serve::RequestTemplate& t : dataset_mix(spec)) {
      mix.push_back(std::move(t));
    }
  }

  // Aggregate capacity: each class contributes count / (mean service time
  // of the mix under its config).
  double capacity_rps = 0.0;
  for (const serve::DeviceClass& klass : fleet) {
    const double ms = mean_service_ms_under(mix, klass.config);
    capacity_rps += static_cast<double>(klass.count) / (ms / 1e3);
    json.set("mixed_fleet.service_ms." + klass.name, ms);
  }
  json.set("mixed_fleet.capacity_rps", capacity_rps);

  bool affinity_wins = true;
  for (const double rho : {0.3, 0.5}) {
    const double rate = capacity_rps * rho;
    double fifo_p95 = 0.0;
    double affinity_p95 = 0.0;
    for (const serve::SchedulingPolicy policy :
         {serve::SchedulingPolicy::kFifo, serve::SchedulingPolicy::kAffinity}) {
      const serve::ServeReport report =
          run_mixed_point(fleet, mix, policy, rate, requests, seed);
      const serve::ServeReport replay =
          run_mixed_point(fleet, mix, policy, rate, requests, seed);
      if (!reports_identical(report, replay)) {
        deterministic = false;
        std::cerr << "NONDETERMINISM: mixed-fleet/" << serve::policy_name(policy)
                  << "/rho" << rho
                  << " produced different completion records across two seeded runs\n";
      }
      const serve::MetricsSummary& m = report.metrics;
      std::ostringstream rho_label;
      rho_label << "rho" << static_cast<int>(rho * 100);
      const std::string key = "mixed_fleet." + std::string(serve::policy_name(policy)) +
                              "." + rho_label.str();
      json.set(key + ".offered_rps", rate);
      json.set(key + ".p50_ms", m.p50_ms);
      json.set(key + ".p95_ms", m.p95_ms);
      json.set(key + ".p99_ms", m.p99_ms);
      json.set(key + ".throughput_rps", m.throughput_rps);
      json.set(key + ".fleet_utilization", report.fleet_utilization());
      json.set(key + ".nextgen_request_share",
               static_cast<double>(report.devices.back().requests) /
                   static_cast<double>(std::max<std::size_t>(m.completed, 1)));
      table.add_row({"mixed-fleet", std::string(serve::policy_name(policy)),
                     rho_label.str(), util::Table::fixed(rate, 0),
                     util::Table::fixed(m.p50_ms, 3), util::Table::fixed(m.p95_ms, 3),
                     util::Table::fixed(m.p99_ms, 3),
                     util::Table::fixed(m.throughput_rps, 0),
                     util::Table::fixed(m.mean_batch_size, 2),
                     util::Table::fixed(100.0 * report.fleet_utilization(), 1)});
      if (policy == serve::SchedulingPolicy::kFifo) {
        fifo_p95 = m.p95_ms;
      } else {
        affinity_p95 = m.p95_ms;
      }
    }
    const bool wins = affinity_p95 < fifo_p95;
    json.set("mixed_fleet.affinity_beats_fifo_p95_" +
                 std::to_string(static_cast<int>(rho * 100)),
             static_cast<std::uint64_t>(wins ? 1 : 0));
    if (!wins) {
      affinity_wins = false;
      std::cerr << "REGRESSION: affinity p95 " << affinity_p95 << " ms >= FIFO p95 "
                << fifo_p95 << " ms on the mixed fleet at rho=" << rho << "\n";
    }
  }
  return affinity_wins;
}

constexpr std::string_view kUsage =
    "[--json BENCH_serve.json] [--requests N] [--devices N]";

int run(const util::Args& args) {
  const std::string json_path = args.get("json");
  const auto requests =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("requests", 1500)));
  const auto devices =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("devices", 4)));
  constexpr std::uint64_t kSeed = 123;

  util::Table table({"dataset", "policy", "load", "rate r/s", "p50 ms", "p95 ms", "p99 ms",
                     "thru r/s", "batch", "util %"});
  bench::JsonReport json;
  bool deterministic = true;
  bool batching_wins = true;

  for (const char* ds_name : {"cora", "citeseer"}) {
    const graph::DatasetSpec spec = *graph::find_dataset(ds_name);
    const std::vector<serve::RequestTemplate> mix = dataset_mix(spec);
    // Fleet capacity from the actual simulated service time of the mix.
    const double capacity_rps =
        static_cast<double>(devices) / (mean_service_ms(mix) / 1e3);
    json.set(std::string(ds_name) + ".capacity_rps", capacity_rps);

    double fifo_p95_at_peak = 0.0;
    double batch_p95_at_peak = 0.0;
    for (const serve::SchedulingPolicy policy : kPolicies) {
      for (const LoadPoint& load : kLoadPoints) {
        const double rate = capacity_rps * load.rho;
        const serve::ServeReport report =
            run_point(spec, mix, policy, devices, rate, requests, kSeed);
        const serve::ServeReport replay =
            run_point(spec, mix, policy, devices, rate, requests, kSeed);
        if (!reports_identical(report, replay)) {
          deterministic = false;
          std::cerr << "NONDETERMINISM: " << ds_name << "/"
                    << serve::policy_name(policy) << "/" << load.label
                    << " produced different completion records across two seeded runs\n";
        }

        const serve::MetricsSummary& m = report.metrics;
        const std::string key = std::string(ds_name) + "." +
                                std::string(serve::policy_name(policy)) + "." + load.label;
        json.set(key + ".offered_rps", rate);
        json.set(key + ".p50_ms", m.p50_ms);
        json.set(key + ".p95_ms", m.p95_ms);
        json.set(key + ".p99_ms", m.p99_ms);
        json.set(key + ".mean_ms", m.mean_ms);
        json.set(key + ".throughput_rps", m.throughput_rps);
        json.set(key + ".mean_batch", m.mean_batch_size);
        json.set(key + ".shed", static_cast<std::uint64_t>(m.shed));
        json.set(key + ".fleet_utilization", report.fleet_utilization());

        table.add_row({ds_name, std::string(serve::policy_name(policy)), load.label,
                       util::Table::fixed(rate, 0), util::Table::fixed(m.p50_ms, 3),
                       util::Table::fixed(m.p95_ms, 3), util::Table::fixed(m.p99_ms, 3),
                       util::Table::fixed(m.throughput_rps, 0),
                       util::Table::fixed(m.mean_batch_size, 2),
                       util::Table::fixed(100.0 * report.fleet_utilization(), 1)});

        if (load.rho == kLoadPoints.back().rho) {
          if (policy == serve::SchedulingPolicy::kFifo) {
            fifo_p95_at_peak = m.p95_ms;
          } else if (policy == serve::SchedulingPolicy::kDynamicBatch) {
            batch_p95_at_peak = m.p95_ms;
          }
        }
      }
    }
    const bool wins = batch_p95_at_peak < fifo_p95_at_peak;
    json.set(std::string(ds_name) + ".batch_beats_fifo_p95_at_peak",
             static_cast<std::uint64_t>(wins ? 1 : 0));
    if (!wins) {
      batching_wins = false;
      std::cerr << "REGRESSION: dynamic batching p95 " << batch_p95_at_peak
                << " ms >= FIFO p95 " << fifo_p95_at_peak << " ms at peak load on "
                << ds_name << "\n";
    }
  }

  const bool affinity_wins =
      run_mixed_fleet_scenario(table, json, requests, kSeed, deterministic);

  json.set("schedulers_deterministic", static_cast<std::uint64_t>(deterministic ? 1 : 0));
  json.set("batch_beats_fifo_p95_highest_load",
           static_cast<std::uint64_t>(batching_wins ? 1 : 0));
  json.set("affinity_beats_fifo_p95_mixed_fleet",
           static_cast<std::uint64_t>(affinity_wins ? 1 : 0));

  std::cout << table.to_string();
  if (!json_path.empty()) {
    if (!json.write(json_path)) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
    std::cout << "\nwrote " << json_path << "\n";
  }
  if (!deterministic || !batching_wins || !affinity_wins) {
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::cli_main(argc, argv, kUsage, run); }
