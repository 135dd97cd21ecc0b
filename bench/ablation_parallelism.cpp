// Ablation (DESIGN.md): inter- vs intra-node parallelism provisioning of
// the Graph Engine — the architectural contrast the paper draws against
// HyGCN (§VII). Sweeps GPE count (inter-node) and SIMD lane width
// (intra-node) at constant total lane budget and reports cycles.
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "util/cli.hpp"

namespace {

using namespace gnnerator;

struct Geometry {
  std::uint32_t gpes;
  std::uint32_t lanes;
  [[nodiscard]] std::string name() const {
    return std::to_string(gpes) + "gpe-x-" + std::to_string(lanes) + "lane";
  }
};

// Constant 1024-lane budget split differently between inter-node (GPEs)
// and intra-node (SIMD lanes) parallelism.
const std::vector<Geometry> kGeometries = {
    {1, 1024}, {4, 256}, {16, 64}, {32, 32}, {64, 16}, {256, 4},
};

double simulated_ms(const std::string& ds_name, const Geometry& geo) {
  core::SimulationRequest request;
  request.config.graph.geometry.num_gpes = geo.gpes;
  request.config.graph.geometry.simd_lanes = geo.lanes;
  return bench::gnnerator_ms(bench::BenchPoint{ds_name, gnn::LayerKind::kGcn}, request);
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, "", [](const util::Args&) {
    std::cout << "\n=== Ablation: Graph Engine parallelism split (GCN, 1024 lanes total) ===\n";
    std::vector<std::string> header{"Dataset"};
    for (const Geometry& geo : kGeometries) {
      header.push_back(geo.name() + " (ms)");
    }
    util::Table table(header);
    for (const char* ds : {"cora", "citeseer", "pubmed"}) {
      std::vector<std::string> row{ds};
      for (const Geometry& geo : kGeometries) {
        row.push_back(util::Table::fixed(simulated_ms(ds, geo), 3));
      }
      table.add_row(row);
    }
    std::cout << table.to_string();
    std::cout << "\nA single monolithic GPE (HyGCN-style intra-node-only parallelism) wastes\n"
                 "lanes when the block width is narrow; too many tiny GPEs lose to degree\n"
                 "skew (one hub node serialises a whole GPE). The paper's 32x32 point\n"
                 "balances both — exploiting inter-node AND intra-node parallelism (§III-B).\n";
    return 0;
  });
}
