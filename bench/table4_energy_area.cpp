// Extends Table IV with the derived area estimates (the paper reports
// 14.5 mm^2 for GNNerator vs 7.8 mm^2 for HyGCN and 775 mm^2 for the GPU)
// and reports an energy breakdown per benchmark — the accelerator-paper
// style summary the DAC format had no room for.
#include <iostream>

#include "bench_common.hpp"
#include "core/energy.hpp"
#include "core/report.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace gnnerator;
  return util::cli_main(argc, argv, "", [](const util::Args&) {
    std::cout << "\n=== Table IV (extended): area estimates ===\n";
    const auto base = core::AcceleratorConfig::table4();
    util::Table area({"Configuration", "Area (est. mm^2)", "Paper"});
    area.add_row({"GNNerator (Table IV)", util::Table::fixed(core::estimate_area_mm2(base), 1),
                  "14.5 mm^2"});
    area.add_row({"+2x graph memory",
                  util::Table::fixed(core::estimate_area_mm2(base.with_double_graph_memory()), 1),
                  "-"});
    area.add_row({"+2x dense compute",
                  util::Table::fixed(core::estimate_area_mm2(base.with_double_dense_compute()),
                                     1),
                  "-"});
    std::cout << area.to_string();

    std::cout << "\n=== Energy breakdown per benchmark (GNNerator, blocked) ===\n";
    util::Table table({"Benchmark", "Time (ms)", "DRAM (mJ)", "SRAM (mJ)", "Dense (mJ)",
                       "Graph (mJ)", "Static (mJ)", "Total (mJ)"});
    for (const bench::BenchPoint& point : bench::fig3_points()) {
      const core::SimulationRequest request;
      const graph::Dataset& ds = bench::dataset(point.dataset);
      const auto result =
          core::simulate_gnnerator(ds, core::table3_model(point.kind, ds.spec), request);
      const core::EnergyBreakdown e =
          core::estimate_energy(result.stats, result.cycles, request.config.clock_ghz);
      table.add_row({point.name(),
                     util::Table::fixed(result.milliseconds(request.config.clock_ghz), 3),
                     util::Table::fixed(e.dram_mj, 3), util::Table::fixed(e.sram_mj, 3),
                     util::Table::fixed(e.dense_compute_mj, 3),
                     util::Table::fixed(e.graph_compute_mj, 3), util::Table::fixed(e.static_mj, 3),
                     util::Table::fixed(e.total_mj(), 3)});
    }
    std::cout << table.to_string();
    std::cout << "\nDRAM access energy dominates, as expected for memory-bound GNN\n"
                 "inference — the same observation that motivates feature blocking.\n";
    return 0;
  });
}
