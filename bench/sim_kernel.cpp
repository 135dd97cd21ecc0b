// Measures the event-driven time-skipping kernel against the exhaustive
// reference loop on the paper's sparse benchmark datasets: wall-clock
// speedup, skip ratio, and (as a hard invariant) identical cycle counts and
// stats. This is the bench that tracks simulator throughput itself — the
// quantity sampled serving is bound by — rather than simulated latency.
//
//   ./sim_kernel [--json BENCH_sim_kernel.json] [--datasets cora,citeseer]
//                [--iters N]
//
// Each dataset contributes its full-graph GCN point. cora also contributes
// `cora-sampled-gcn`: 64 fused plans of nine frontiers each, sampled at
// fanout 10/5 from a fixed seed — the plan shape a sampled serving dispatch
// simulates. A point's fields sum over its plans.
//
// With --json, results are written as a flat JSON object (cycles, wall
// seconds per kernel, speedup, skip ratio per point plus totals) so CI can
// archive the perf trajectory per PR.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/accelerator.hpp"
#include "graph/sample.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"

namespace {

using namespace gnnerator;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

/// A named set of plans whose timing runs are measured and summed together.
struct KernelPoint {
  std::string name;
  std::vector<std::shared_ptr<const core::LoweredModel>> plans;
};

/// `count` fused GCN plans over cora, each fusing `frontiers` single-seed
/// frontiers sampled at fanout 10/5, all drawn from one fixed-seed PRNG.
KernelPoint sampled_point(const graph::Dataset& cora, std::size_t count,
                          std::size_t frontiers) {
  const graph::FanoutSpec fanout = graph::parse_fanout("10/5");
  util::Prng prng(2021);
  KernelPoint point{"cora-sampled-gcn", {}};
  for (std::size_t p = 0; p < count; ++p) {
    const graph::Dataset fused = graph::sample_fused_dataset(cora, frontiers, fanout, prng);
    point.plans.push_back(std::make_shared<const core::LoweredModel>(core::compile_for(
        fused, core::table3_model(gnn::LayerKind::kGcn, fused.spec), core::SimulationRequest{})));
  }
  return point;
}

constexpr std::string_view kUsage =
    "[--json BENCH_sim_kernel.json] [--datasets cora,citeseer,pubmed] [--iters N]";

int run(const util::Args& args) {
  const std::string json_path = args.get("json");
  const auto iters = static_cast<int>(args.get_int("iters", 3));
  const std::vector<std::string> datasets =
      split_csv(args.get("datasets", "cora,citeseer,pubmed"));

  util::Table table({"Benchmark", "Cycles", "Skip %", "Event (s)", "Reference (s)", "Speedup"});
  bench::JsonReport json;
  double total_event_s = 0.0;
  double total_reference_s = 0.0;

  std::vector<KernelPoint> points;
  for (const std::string& ds : datasets) {
    core::SimulationRequest request;  // timing-only, blocked dataflow
    const graph::Dataset& dataset = bench::dataset(ds);
    const gnn::ModelSpec model = core::table3_model(gnn::LayerKind::kGcn, dataset.spec);
    points.push_back(KernelPoint{ds + "-gcn", {bench::engine().plan_for(dataset, model, request)}});
    if (ds == "cora") {
      points.push_back(sampled_point(dataset, /*count=*/64, /*frontiers=*/9));
    }
  }

  for (const KernelPoint& point : points) {
    // Best-of-N for the fast kernel (it is minutes-to-microseconds level
    // sensitive to noise); single shot for the slow reference.
    std::vector<core::ExecutionResult> event_results(point.plans.size());
    double event_s = std::numeric_limits<double>::infinity();
    for (int i = 0; i < std::max(1, iters); ++i) {
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t p = 0; p < point.plans.size(); ++p) {
        event_results[p] = core::Accelerator::run_timing(*point.plans[p], nullptr,
                                                         core::TimingKernel::kEventDriven);
      }
      event_s = std::min(event_s, seconds_since(start));
    }
    std::vector<core::ExecutionResult> reference_results(point.plans.size());
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t p = 0; p < point.plans.size(); ++p) {
      reference_results[p] = core::Accelerator::run_timing(*point.plans[p], nullptr,
                                                           core::TimingKernel::kReference);
    }
    const double reference_s = seconds_since(start);

    std::uint64_t cycles = 0;
    std::uint64_t ticked = 0;
    std::uint64_t skipped = 0;
    for (std::size_t p = 0; p < point.plans.size(); ++p) {
      const core::ExecutionResult& event = event_results[p];
      const core::ExecutionResult& reference = reference_results[p];
      GNNERATOR_CHECK_MSG(event.cycles == reference.cycles,
                          point.name << " plan " << p << ": event kernel diverged from reference");
      GNNERATOR_CHECK_MSG(event.stats.counters() == reference.stats.counters(),
                          point.name << " plan " << p
                                     << ": event kernel stats diverged from reference");
      cycles += event.cycles;
      ticked += event.kernel_cycles_ticked;
      skipped += event.kernel_cycles_skipped;
    }

    const double skip_ratio = static_cast<double>(skipped) / static_cast<double>(cycles);
    const double speedup = reference_s / event_s;
    total_event_s += event_s;
    total_reference_s += reference_s;

    const std::string& name = point.name;
    table.add_row({name, std::to_string(cycles), util::Table::fixed(100.0 * skip_ratio, 1),
                   util::Table::fixed(event_s, 4), util::Table::fixed(reference_s, 4),
                   util::Table::speedup(speedup)});
    json.set(name + ".cycles", cycles);
    json.set(name + ".cycles_ticked", ticked);
    json.set(name + ".skip_ratio", skip_ratio);
    json.set(name + ".wall_s_event", event_s);
    json.set(name + ".wall_s_reference", reference_s);
    json.set(name + ".speedup", speedup);
  }

  const double total_speedup = total_reference_s / total_event_s;
  table.add_separator();
  table.add_row({"Total", "", "", util::Table::fixed(total_event_s, 4),
                 util::Table::fixed(total_reference_s, 4), util::Table::speedup(total_speedup)});
  std::cout << "=== Simulation kernel: event-driven vs reference loop ===\n"
            << table.to_string();

  json.set("total.wall_s_event", total_event_s);
  json.set("total.wall_s_reference", total_reference_s);
  json.set("total.speedup", total_speedup);
  if (!json_path.empty()) {
    if (!json.write(json_path)) {
      std::cerr << "error: cannot write JSON to " << json_path << '\n';
      return 1;
    }
    std::cout << "\nWrote " << json_path << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::cli_main(argc, argv, kUsage, run); }
