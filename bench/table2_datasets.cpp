// Reproduces paper Table II: the graph dataset summary, plus structural
// statistics of our synthetic stand-ins (see DESIGN.md §2 — |V|, |E| and
// the feature dimension match the Planetoid datasets exactly; the degree
// profile is a heavy-tailed synthetic equivalent).
#include <iostream>

#include "bench_common.hpp"
#include "graph/graph_stats.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace gnnerator;
  return util::cli_main(argc, argv, "", [](const util::Args&) {
    std::cout << "\n=== Table II: graph datasets ===\n";
    util::Table table({"Dataset", "Vertices", "Edges", "Feature Dim.", "Size (paper)",
                       "Size (fp32 features)", "Max degree", "Degree Gini", "Symmetric"});
    for (const graph::DatasetSpec& spec : graph::table2_datasets()) {
      const graph::Dataset ds = graph::make_dataset(spec, /*seed=*/1, /*with_features=*/false);
      const graph::GraphStats stats = graph::compute_stats(ds.graph);
      table.add_row({spec.name, std::to_string(spec.num_nodes), std::to_string(spec.num_edges),
                     std::to_string(spec.feature_dim),
                     util::Table::fixed(spec.paper_size_mb, 1) + " MB",
                     util::Table::fixed(static_cast<double>(spec.feature_bytes()) / 1e6, 1) +
                         " MB",
                     std::to_string(stats.max_out_degree), util::Table::fixed(stats.degree_gini, 2),
                     stats.symmetric ? "yes" : "no"});
    }
    std::cout << table.to_string();
    std::cout << "\nPaper sizes: Cora 15.6 MB, Citeseer 49 MB, Pubmed 40.5 MB. Most datasets\n"
                 "cannot fit on-chip due to the large feature dimension sizes.\n";
    return 0;
  });
}
