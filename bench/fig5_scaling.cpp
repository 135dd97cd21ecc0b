// Reproduces paper Fig. 5: where should a next-generation GNNerator invest
// extra hardware? Three variants — 2x Graph Engine memory, 2x Dense Engine
// compute (doubled height and width), 2x feature-memory bandwidth — across
// hidden dimensions {16, 128, 1024} on the three datasets (GCN).
//
// Paper shape: more bandwidth helps networks with small hidden dimensions;
// more Dense Engine compute wins at large hidden sizes (up to ~2.6x);
// geomeans ~1.1x (mem), ~1.4x (dense), ~1.4x (bw).
#include <benchmark/benchmark.h>

#include <iostream>
#include <map>
#include <optional>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace gnnerator;

const std::vector<std::size_t> kHidden = {16, 128, 1024};
const std::vector<const char*> kDatasets = {"cora", "citeseer", "pubmed"};
const std::vector<const char*> kVariants = {"base", "2x-graph-mem", "2x-dense", "2x-bw"};

core::AcceleratorConfig variant_config(const std::string& variant) {
  const auto base = core::AcceleratorConfig::table4();
  if (variant == "2x-graph-mem") return base.with_double_graph_memory();
  if (variant == "2x-dense") return base.with_double_dense_compute();
  if (variant == "2x-bw") return base.with_double_bandwidth();
  return base;
}

std::string point_name(const std::string& ds, std::size_t hidden) {
  std::string cap = ds;
  cap[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(cap[0])));
  return cap + "-" + std::to_string(hidden);
}

// g_ms[variant][point]
std::map<std::string, std::map<std::string, double>> g_ms;

void run_point(benchmark::State& state, const std::string& ds, std::size_t hidden,
               const std::string& variant) {
  core::SimulationRequest request;
  request.config = variant_config(variant);
  // The paper's dataflow default (B = 64) is held fixed across variants:
  // letting B track a doubled array width would change the shard grid and
  // confound the hardware comparison.
  request.dataflow.block_size = 64;
  double ms = 0.0;
  for (auto _ : state) {
    ms = bench::gnnerator_ms(bench::BenchPoint{ds, gnn::LayerKind::kGcn}, request, hidden);
  }
  g_ms[variant][point_name(ds, hidden)] = ms;
  state.counters["sim_ms"] = ms;
}

void register_benchmarks() {
  for (const std::size_t hidden : kHidden) {
    for (const char* ds : kDatasets) {
      for (const char* variant : kVariants) {
        benchmark::RegisterBenchmark(
            ("fig5/" + point_name(ds, hidden) + "/" + variant).c_str(),
            [ds = std::string(ds), hidden, variant = std::string(variant)](
                benchmark::State& s) { run_point(s, ds, hidden, variant); })
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
      }
    }
  }
}

/// Simulated ms of (variant, point), or nullopt when a partial
/// --benchmark_filter skipped it.
std::optional<double> ms_of(const std::string& variant, const std::string& point) {
  const auto by_variant = g_ms.find(variant);
  if (by_variant == g_ms.end()) {
    return std::nullopt;
  }
  const auto it = by_variant->second.find(point);
  if (it == by_variant->second.end()) {
    return std::nullopt;
  }
  return it->second;
}

void print_table() {
  std::cout << "\n=== Fig. 5: next-generation GNNerator scaling (speedup vs base) ===\n";
  util::Table table({"Benchmark", "More Graph Engine Memory", "More DNN Engine Compute",
                     "More Feature Memory Bandwidth"});
  std::map<std::string, std::vector<double>> speedups;
  for (const std::size_t hidden : kHidden) {
    for (const char* ds : kDatasets) {
      const std::string point = point_name(ds, hidden);
      const std::optional<double> base = ms_of("base", point);
      std::vector<std::string> row{point};
      bool ran = base.has_value();
      for (const char* variant : {"2x-graph-mem", "2x-dense", "2x-bw"}) {
        const std::optional<double> ms = ms_of(variant, point);
        ran = ran || ms.has_value();
        std::optional<double> speedup;
        if (base && ms) {
          speedup = *base / *ms;
          speedups[variant].push_back(*speedup);
        }
        row.push_back(bench::speedup_cell(speedup));
      }
      if (ran) {
        table.add_row(row);
      }
    }
  }
  table.add_separator();
  std::vector<std::string> gmean_row{"Gmean"};
  for (const char* variant : {"2x-graph-mem", "2x-dense", "2x-bw"}) {
    gmean_row.push_back(bench::gmean_cell(speedups[variant]));
  }
  table.add_row(gmean_row);
  std::cout << table.to_string();
  std::cout << "\nPaper: bandwidth helps small hidden dims, Dense Engine compute wins at\n"
               "large hidden dims (up to ~2.6x); Gmeans ~1.1x / 1.4x / 1.4x.\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  register_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_table();
  return 0;
}
