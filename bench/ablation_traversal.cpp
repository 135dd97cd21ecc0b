// Ablation (DESIGN.md): traversal-order choice. Runs GCN on every dataset
// with the traversal forced to source-stationary, forced to
// destination-stationary, and chosen by the Table I cost model, confirming
// that the compiler's analytical choice matches the simulated optimum.
#include <algorithm>
#include <iostream>
#include <optional>

#include "bench_common.hpp"
#include "shard/traversal.hpp"
#include "util/cli.hpp"

namespace {

using namespace gnnerator;

/// GCN on the unblocked dataflow (multi-shard grids, so traversal matters),
/// with the traversal forced or, when `traversal` is empty, chosen by the
/// cost model.
double simulated_ms(const std::string& ds_name, std::optional<shard::Traversal> traversal) {
  core::SimulationRequest request;
  request.dataflow.feature_blocking = false;
  request.dataflow.traversal = traversal;
  return bench::gnnerator_ms(bench::BenchPoint{ds_name, gnn::LayerKind::kGcn}, request);
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, "", [](const util::Args&) {
    std::cout << "\n=== Ablation: traversal order (GCN, unblocked dataflow) ===\n";
    util::Table table({"Dataset", "src-stationary (ms)", "dst-stationary (ms)",
                       "cost-model choice (ms)", "Choice optimal?"});
    for (const char* ds : {"cora", "citeseer", "pubmed"}) {
      const double src = simulated_ms(ds, shard::Traversal::kSourceStationary);
      const double dst = simulated_ms(ds, shard::Traversal::kDestStationary);
      const double chosen = simulated_ms(ds, std::nullopt);
      const double best = std::min(src, dst);
      table.add_row({ds, util::Table::fixed(src, 3), util::Table::fixed(dst, 3),
                     util::Table::fixed(chosen, 3), chosen <= best * 1.001 ? "yes" : "NO"});
    }
    std::cout << table.to_string();
    std::cout << "\nDestination-stationary wins for graph-first networks: aggregated columns\n"
                 "hand over to the Dense Engine as they complete, and partial accumulators\n"
                 "never shuttle to DRAM (Table I: writes S vs S^2-S+1).\n";
    return 0;
  });
}
