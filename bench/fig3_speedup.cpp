// Reproduces paper Fig. 3: normalized speedup over the RTX 2080 Ti baseline
// for the nine benchmarks, for GNNerator with and without feature
// dimension-blocking. Also prints the Table III network summary.
//
// Paper reference values: geomean 8.0x (blocked) and 4.2x (unblocked), with
// per-benchmark speedups from 1.7x (pub-gsage) to 37x (citeseer-gsage-max).
#include <benchmark/benchmark.h>

#include <iostream>
#include <map>
#include <optional>

#include "bench_common.hpp"

namespace {

using namespace gnnerator;
using bench::BenchPoint;

/// One benchmark point; a GNNerator time of 0 means a partial
/// --benchmark_filter skipped that run.
struct Fig3Row {
  double gpu_ms = 0.0;
  double blocked_ms = 0.0;
  double unblocked_ms = 0.0;

  [[nodiscard]] std::optional<double> speedup(double gnnerator_ms) const {
    if (gnnerator_ms <= 0.0) {
      return std::nullopt;
    }
    return gpu_ms / gnnerator_ms;
  }
};

std::map<std::string, Fig3Row> g_rows;

void run_point(benchmark::State& state, const BenchPoint& point, bool blocked) {
  core::SimulationRequest request;
  request.dataflow.feature_blocking = blocked;
  double ms = 0.0;
  for (auto _ : state) {
    ms = bench::gnnerator_ms(point, request);
  }
  Fig3Row& row = g_rows[point.name()];
  (blocked ? row.blocked_ms : row.unblocked_ms) = ms;
  if (row.gpu_ms == 0.0) {
    row.gpu_ms = bench::gpu_ms(point);
  }
  state.counters["sim_ms"] = ms;
  state.counters["speedup_vs_gpu"] = row.gpu_ms / ms;
}

void register_benchmarks() {
  for (const BenchPoint& point : bench::fig3_points()) {
    benchmark::RegisterBenchmark(("fig3/" + point.name() + "/blocked").c_str(),
                                 [point](benchmark::State& s) { run_point(s, point, true); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark(("fig3/" + point.name() + "/no-blocking").c_str(),
                                 [point](benchmark::State& s) { run_point(s, point, false); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
}

void write_json(const std::string& path) {
  bench::JsonReport json;
  std::vector<double> blocked_speedups;
  std::vector<double> unblocked_speedups;
  for (const BenchPoint& point : bench::fig3_points()) {
    const auto it = g_rows.find(point.name());
    if (it == g_rows.end()) {
      continue;  // point excluded by --benchmark_filter
    }
    const Fig3Row& row = it->second;
    json.set(point.name() + ".gpu_ms", row.gpu_ms);
    if (const auto s = row.speedup(row.blocked_ms)) {
      json.set(point.name() + ".blocked_ms", row.blocked_ms);
      json.set(point.name() + ".speedup", *s);
      blocked_speedups.push_back(*s);
    }
    if (const auto s = row.speedup(row.unblocked_ms)) {
      json.set(point.name() + ".unblocked_ms", row.unblocked_ms);
      unblocked_speedups.push_back(*s);
    }
  }
  if (!blocked_speedups.empty()) {
    json.set("gmean.speedup_blocked", util::geomean(blocked_speedups));
  }
  if (!unblocked_speedups.empty()) {
    json.set("gmean.speedup_unblocked", util::geomean(unblocked_speedups));
  }
  if (!json.write(path)) {
    std::cerr << "error: cannot write JSON to " << path << '\n';
  } else {
    std::cout << "Wrote " << path << '\n';
  }
}

void print_table() {
  std::cout << "\n=== Table III: networks ===\n";
  util::Table nets({"Network", "Hidden Layers", "Hidden Dimension"});
  nets.add_row({"GCN", "1", "16"});
  nets.add_row({"Graphsage", "1", "16"});
  nets.add_row({"GraphsagePool", "1", "16"});
  std::cout << nets.to_string();

  std::cout << "\n=== Fig. 3: speedup over RTX 2080 Ti (model) ===\n";
  util::Table table({"Benchmark", "GPU (ms)", "GNNerator (ms)", "GNNerator w/o FB (ms)",
                     "Speedup", "Speedup w/o FB"});
  std::vector<double> blocked_speedups;
  std::vector<double> unblocked_speedups;
  for (const BenchPoint& point : bench::fig3_points()) {
    const auto it = g_rows.find(point.name());
    if (it == g_rows.end()) {
      continue;  // point excluded by --benchmark_filter
    }
    const Fig3Row& row = it->second;
    const auto s_blocked = row.speedup(row.blocked_ms);
    const auto s_unblocked = row.speedup(row.unblocked_ms);
    if (s_blocked) {
      blocked_speedups.push_back(*s_blocked);
    }
    if (s_unblocked) {
      unblocked_speedups.push_back(*s_unblocked);
    }
    const auto ms_cell = [](double ms) { return ms > 0.0 ? util::Table::fixed(ms, 3) : "n/a"; };
    table.add_row({point.name(), util::Table::fixed(row.gpu_ms, 3), ms_cell(row.blocked_ms),
                   ms_cell(row.unblocked_ms), bench::speedup_cell(s_blocked),
                   bench::speedup_cell(s_unblocked)});
  }
  table.add_separator();
  table.add_row({"Gmean", "", "", "", bench::gmean_cell(blocked_speedups),
                 bench::gmean_cell(unblocked_speedups)});
  std::cout << table.to_string();
  std::cout << "\nPaper: Gmean 8.0x (blocked), 4.2x (w/o feature blocking).\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  benchmark::Initialize(&argc, argv);
  register_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_table();
  if (!json_path.empty()) {
    write_json(json_path);
  }
  return 0;
}
