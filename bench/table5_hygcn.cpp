// Reproduces paper Table V (speedups of GNNerator over HyGCN for GCN) and
// prints the Table IV platform summary.
//
// Paper values:            Cora  Citeseer  Pubmed
//   GNNerator w/o blocking 1.8x  0.8x      1.0x
//   GNNerator              3.8x  3.2x      2.3x
#include <benchmark/benchmark.h>

#include <iostream>
#include <map>
#include <optional>

#include "baseline/hygcn_model.hpp"
#include "bench_common.hpp"

namespace {

using namespace gnnerator;

std::map<std::string, double> g_hygcn_ms;
std::map<std::string, double> g_blocked_ms;
std::map<std::string, double> g_unblocked_ms;

void run_hygcn(benchmark::State& state, const std::string& ds_name, bool elimination) {
  const graph::Dataset& ds = bench::dataset(ds_name);
  const gnn::ModelSpec model = core::table3_model(gnn::LayerKind::kGcn, ds.spec);
  baseline::HygcnConfig config;
  config.sparsity_elimination = elimination;
  const baseline::HygcnModel hygcn(config);
  double ms = 0.0;
  for (auto _ : state) {
    ms = hygcn.milliseconds(hygcn.simulate_cycles(ds.graph, model));
  }
  if (elimination) {
    g_hygcn_ms[ds_name] = ms;
  }
  state.counters["sim_ms"] = ms;
}

void run_gnnerator(benchmark::State& state, const std::string& ds_name, bool blocked) {
  core::SimulationRequest request;
  request.dataflow.feature_blocking = blocked;
  double ms = 0.0;
  for (auto _ : state) {
    ms = bench::gnnerator_ms(bench::BenchPoint{ds_name, gnn::LayerKind::kGcn}, request);
  }
  (blocked ? g_blocked_ms : g_unblocked_ms)[ds_name] = ms;
  state.counters["sim_ms"] = ms;
}

void register_benchmarks() {
  for (const char* ds : {"cora", "citeseer", "pubmed"}) {
    benchmark::RegisterBenchmark((std::string("table5/hygcn/") + ds).c_str(),
                                 [ds = std::string(ds)](benchmark::State& s) {
                                   run_hygcn(s, ds, true);
                                 })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark((std::string("table5/hygcn-no-elim/") + ds).c_str(),
                                 [ds = std::string(ds)](benchmark::State& s) {
                                   run_hygcn(s, ds, false);
                                 })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark((std::string("table5/gnnerator/") + ds).c_str(),
                                 [ds = std::string(ds)](benchmark::State& s) {
                                   run_gnnerator(s, ds, true);
                                 })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
    benchmark::RegisterBenchmark((std::string("table5/gnnerator-no-fb/") + ds).c_str(),
                                 [ds = std::string(ds)](benchmark::State& s) {
                                   run_gnnerator(s, ds, false);
                                 })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
}

/// HyGCN time over GNNerator time on `ds`, or nullopt when a partial
/// --benchmark_filter skipped either run.
std::optional<double> speedup_over_hygcn(const std::map<std::string, double>& gnnerator_ms,
                                         const std::string& ds) {
  const auto hygcn = g_hygcn_ms.find(ds);
  const auto ours = gnnerator_ms.find(ds);
  if (hygcn == g_hygcn_ms.end() || ours == gnnerator_ms.end()) {
    return std::nullopt;
  }
  return hygcn->second / ours->second;
}

void print_tables() {
  std::cout << "\n=== Table IV: compute platforms ===\n";
  const auto gnn_cfg = core::AcceleratorConfig::table4();
  const baseline::HygcnConfig hygcn_cfg;
  const baseline::GpuModel gpu;
  util::Table platforms({"", "RTX 2080 Ti", "GNNerator", "HyGCN"});
  platforms.add_row({"Peak Compute", "13 TFLOPs",
                     util::Table::fixed(gnn_cfg.peak_dense_tflops() +
                                            gnn_cfg.peak_graph_tflops(), 0) +
                         " TFLOPs (" + util::Table::fixed(gnn_cfg.peak_graph_tflops(), 0) +
                         " Graph, " + util::Table::fixed(gnn_cfg.peak_dense_tflops(), 0) +
                         " Dense)",
                     "9 TFLOPs (1 Graph, 8 Dense)"});
  platforms.add_row({"On-chip Memory", "29.5 MiB",
                     util::format_bytes(gnn_cfg.total_sram_bytes()),
                     util::format_bytes(hygcn_cfg.buffer_bytes)});
  platforms.add_row({"Off-chip Memory",
                     util::Table::fixed(gpu.config().mem_bw_bytes / 1e9, 0) + " GB/s",
                     util::Table::fixed(gnn_cfg.offchip_gb_per_s(), 0) + " GB/s",
                     util::Table::fixed(hygcn_cfg.dram_bytes_per_cycle, 0) + " GB/s"});
  std::cout << platforms.to_string();

  std::cout << "\n=== Table V: speedup of GNNerator over HyGCN (GCN) ===\n";
  util::Table table({"", "Cora", "Citeseer", "Pubmed"});
  std::vector<std::string> unblocked_row{"GNNerator w/o blocking"};
  std::vector<std::string> blocked_row{"GNNerator"};
  for (const char* ds : {"cora", "citeseer", "pubmed"}) {
    unblocked_row.push_back(bench::speedup_cell(speedup_over_hygcn(g_unblocked_ms, ds)));
    blocked_row.push_back(bench::speedup_cell(speedup_over_hygcn(g_blocked_ms, ds)));
  }
  table.add_row(unblocked_row);
  table.add_row(blocked_row);
  std::cout << table.to_string();
  std::cout << "\nPaper: w/o blocking 1.8x / 0.8x / 1.0x; with blocking 3.8x / 3.2x / 2.3x\n"
               "(average 3.15x). HyGCN's sparsity elimination is modelled (window rows\n"
               "without edges are not fetched), reproducing its dataset-dependent gain.\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  register_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_tables();
  return 0;
}
