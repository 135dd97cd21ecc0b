// Serving scenario: a closed-loop client population driving the
// multi-device serving subsystem (serve::Server) over a whole request mix —
// every Table II dataset x every Table III network x two accelerator
// configurations. Each client keeps one request outstanding; several waves
// of the mix flow through the fleet, and the shared plan cache absorbs
// every repeat. Thin client of src/serve — the queueing, batching and
// metrics all live in the subsystem.
//
//   ./serve_many [--devices N] [--clients K] [--waves W] [--policy P]
//                [--think-ms MS]
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "util/args.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace gnnerator;

namespace {

constexpr std::string_view kUsage =
    "[--devices N] [--clients K] [--waves W] [--policy fifo|sjf|batch]\n"
    "  [--think-ms MS]";

int run(const util::Args& args) {
  serve::ServerOptions options;
  options.num_devices =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("devices", 4)));
  const std::string policy_arg = args.get("policy", "batch");
  const auto policy = serve::parse_policy(policy_arg);
  GNNERATOR_CHECK_MSG(policy.has_value(),
                      "unknown policy '" << policy_arg << "' (fifo, sjf, batch)");
  options.policy = *policy;
  serve::Server server(options);

  // The request mix: datasets x networks x {paper config, 2x bandwidth}.
  std::vector<serve::RequestTemplate> mix;
  std::vector<std::string> labels;
  for (const auto& spec : graph::table2_datasets()) {
    const graph::Dataset& ds = server.add_dataset(
        graph::make_dataset(spec, /*seed=*/1, /*with_features=*/false));
    for (const gnn::LayerKind kind :
         {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
      for (const bool fast_dram : {false, true}) {
        serve::RequestTemplate t;
        t.sim.dataset = ds.spec.name;
        t.sim.model = core::table3_model(kind, spec);
        if (fast_dram) {
          t.sim.config = t.sim.config.with_double_bandwidth();
        }
        mix.push_back(std::move(t));
        labels.push_back(spec.name + "/" + std::string(gnn::layer_kind_name(kind)) +
                         (fast_dram ? "/2x-bw" : "/paper"));
      }
    }
  }

  const auto waves = static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("waves", 2)));
  const auto clients =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("clients", 8)));
  const std::size_t total = mix.size() * waves;
  serve::ClosedLoopWorkload workload(mix, clients, total,
                                     /*think_ms=*/args.get_double("think-ms", 0.1),
                                     options.clock_ghz, /*seed=*/7);

  std::cout << "closed loop: " << clients << " clients x " << total << " requests ("
            << mix.size() << "-point mix x " << waves << " waves) on "
            << options.num_devices << " simulated device(s), policy "
            << serve::policy_name(options.policy) << "\n\n";

  const serve::ServeReport report = server.serve(workload);
  std::cout << report.format();

  // Per-class view of what the mix cost: one row per mix entry, correlated
  // to its outcomes via the plan-compatibility class key.
  util::Table table({"class", "requests", "mean latency ms", "mean batch"});
  for (std::size_t m = 0; m < mix.size(); ++m) {
    const std::string key = server.class_key(mix[m].sim);
    std::uint64_t count = 0;
    double latency_sum = 0.0;
    double batch_sum = 0.0;
    for (const serve::Outcome& outcome : report.outcomes) {
      if (outcome.shed || outcome.class_key != key) {
        continue;
      }
      ++count;
      latency_sum += outcome.latency_ms(report.clock_ghz);
      batch_sum += outcome.batch_size;
    }
    if (count > 0) {
      table.add_row({labels[m], std::to_string(count),
                     util::Table::fixed(latency_sum / static_cast<double>(count), 3),
                     util::Table::fixed(batch_sum / static_cast<double>(count), 2)});
    }
  }
  std::cout << '\n' << table.to_string();
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::cli_main(argc, argv, kUsage, run); }
