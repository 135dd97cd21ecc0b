// Ablation (paper §VI-A): HyGCN's window sparsity elimination is
// "orthogonal to our work and can be added to GNNerator" — this bench adds
// it (DataflowOptions::sparsity_elimination) and measures the gain on the
// unblocked dataflow, where full-interval source fetches dominate.
//
// Paper context: on HyGCN the optimisation is worth ~1.1x on Cora/Pubmed
// and ~3x on Citeseer (the sparsest graph). The same dataset ordering
// should appear here.
#include <iostream>

#include "bench_common.hpp"
#include "util/cli.hpp"

namespace {

using namespace gnnerator;

double simulated_ms(const std::string& ds, bool elim, bool blocked) {
  core::SimulationRequest request;
  request.dataflow.feature_blocking = blocked;
  request.dataflow.sparsity_elimination = elim;
  return bench::gnnerator_ms(bench::BenchPoint{ds, gnn::LayerKind::kGcn}, request);
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, "", [](const util::Args&) {
    std::cout << "\n=== Ablation: sparsity elimination added to GNNerator (GCN) ===\n";
    util::Table table({"Dataset", "Unblocked (ms)", "Unblocked+elim (ms)", "Gain",
                       "Blocked (ms)", "Blocked+elim (ms)", "Gain "});
    for (const char* ds : {"cora", "citeseer", "pubmed"}) {
      const double base = simulated_ms(ds, false, false);
      const double elim = simulated_ms(ds, true, false);
      const double base_fb = simulated_ms(ds, false, true);
      const double elim_fb = simulated_ms(ds, true, true);
      table.add_row({ds, util::Table::fixed(base, 3), util::Table::fixed(elim, 3),
                     util::Table::speedup(base / elim, 2), util::Table::fixed(base_fb, 3),
                     util::Table::fixed(elim_fb, 3), util::Table::speedup(base_fb / elim_fb, 2)});
    }
    std::cout << table.to_string();
    std::cout << "\nWithout feature blocking, eliminating inactive window rows recovers a\n"
                 "large fraction of the wasted full-interval fetches (most on the sparsest\n"
                 "graph, as HyGCN reports for Citeseer). With blocking, grids are S=1 and\n"
                 "every interval row is active, so the optimisation is near-neutral —\n"
                 "consistent with the paper treating it as orthogonal.\n";
    return 0;
  });
}
