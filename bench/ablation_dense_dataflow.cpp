// Ablation (DESIGN.md §5): the Dense Engine's systolic dataflow. The paper
// integrates SCALE-Sim, which supports multiple mappings; Fig. 4's B=32
// penalty implies weight-stationary with K on the array rows. This bench
// quantifies the choice by running the full suite under both mappings.
#include <iostream>

#include "bench_common.hpp"
#include "util/cli.hpp"

namespace {

using namespace gnnerator;
using bench::BenchPoint;

double simulated_ms(const BenchPoint& point, dense::SystolicDataflow dataflow) {
  core::SimulationRequest request;
  request.config.dense.array.dataflow = dataflow;
  return bench::gnnerator_ms(point, request);
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, "", [](const util::Args&) {
    std::cout << "\n=== Ablation: Dense Engine systolic dataflow (blocked, B=64) ===\n";
    util::Table table({"Benchmark", "Weight-stationary (ms)", "Output-stationary (ms)",
                       "WS vs OS"});
    std::vector<double> ratios;
    for (const BenchPoint& point : bench::fig3_points()) {
      const double ws = simulated_ms(point, dense::SystolicDataflow::kWeightStationary);
      const double os = simulated_ms(point, dense::SystolicDataflow::kOutputStationary);
      ratios.push_back(os / ws);
      table.add_row({point.name(), util::Table::fixed(ws, 3), util::Table::fixed(os, 3),
                     util::Table::speedup(os / ws, 2)});
    }
    table.add_separator();
    table.add_row({"Gmean", "", "", util::Table::speedup(util::geomean(ratios), 2)});
    std::cout << table.to_string();
    std::cout << "\nWith feature blocking, GEMM K-extents equal the block (64): the WS\n"
                 "mapping amortises its weight load across the whole node stream, while OS\n"
                 "re-pays array fill/drain per 64-deep tile. WS is the mapping consistent\n"
                 "with the paper's Fig. 4 under-utilisation claim, and it is also the\n"
                 "faster one under blocking.\n";
    return 0;
  });
}
