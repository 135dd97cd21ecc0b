// Explores graph datasets and how GNNerator's compiler would shard them:
// structural statistics, shard grids at several block sizes, and the
// Table I traversal costs. Also demonstrates graph generation and I/O.
//
//   ./dataset_explorer [--dataset pubmed] [--save graph.txt]
//   ./dataset_explorer --generate rmat --scale 12 --edges 40000
#include <iostream>

#include "graph/datasets.hpp"
#include "graph/generate.hpp"
#include "graph/graph_stats.hpp"
#include "graph/io.hpp"
#include "shard/cost_model.hpp"
#include "shard/shard_grid.hpp"
#include "shard/sizing.hpp"
#include "util/args.hpp"
#include "util/cli.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace gnnerator;

namespace {

constexpr std::string_view kUsage =
    "[--dataset pubmed] [--save graph.txt]\n"
    "  | --generate rmat|er [--scale N] [--nodes N] [--edges N] [--seed N] [--dims N]";

int run(const util::Args& args) {

  graph::Graph g(1, {});
  std::string name;
  std::size_t feature_dim = 512;

  if (args.get("generate", "").empty()) {
    name = args.get("dataset", "pubmed");
    const graph::Dataset dataset =
        graph::make_dataset_by_name(name, /*seed=*/1, /*with_features=*/false);
    feature_dim = dataset.spec.feature_dim;
    g = dataset.graph;
  } else {
    const std::string kind = args.get("generate");
    util::Prng prng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
    const auto edges = static_cast<std::size_t>(args.get_int("edges", 40000));
    if (kind == "rmat") {
      const auto scale = static_cast<unsigned>(args.get_int("scale", 12));
      g = graph::rmat(scale, edges, 0.57, 0.19, 0.19, prng);
      name = "rmat-" + std::to_string(scale);
    } else if (kind == "er") {
      const auto n = static_cast<graph::NodeId>(args.get_int("nodes", 4096));
      g = graph::erdos_renyi(n, edges, prng);
      name = "erdos-renyi";
    } else if (kind == "pa") {
      const auto n = static_cast<graph::NodeId>(args.get_int("nodes", 4096));
      g = graph::preferential_attachment(n, 4, prng);
      name = "preferential-attachment";
    } else {
      std::cerr << "unknown --generate '" << kind << "' (rmat | er | pa)\n";
      return 1;
    }
    feature_dim = static_cast<std::size_t>(args.get_int("dims", 512));
  }

  std::cout << "=== " << name << " ===\n" << graph::format_stats(graph::compute_stats(g));

  std::cout << "\n=== Shard sizing vs block size (24 MiB Graph Engine scratchpad) ===\n";
  util::Table table({"B", "n (nodes/shard)", "S (grid)", "Non-empty shards", "Best traversal",
                     "Read cost", "Write cost"});
  for (const std::size_t block : {16UL, 64UL, 256UL, 1024UL, feature_dim}) {
    const auto sizing =
        shard::choose_shard_size(23 * util::kMiB, block, g.num_nodes());
    const shard::ShardGrid grid(g, sizing.nodes_per_shard);
    const auto traversal = shard::choose_traversal(sizing.grid_dim, 1.0);
    const auto cost = shard::analytic_shard_cost(sizing.grid_dim, 1.0, traversal);
    table.add_row({std::to_string(block), std::to_string(sizing.nodes_per_shard),
                   std::to_string(sizing.grid_dim), std::to_string(grid.num_nonempty_shards()),
                   std::string(shard::traversal_name(traversal)),
                   util::Table::fixed(cost.reads, 0), util::Table::fixed(cost.writes, 0)});
  }
  std::cout << table.to_string();
  std::cout << "\nSmaller blocks keep more nodes on-chip (larger n, smaller S): this is\n"
               "the feature-blocking benefit of paper §IV-B.\n";

  const std::string save = args.get("save", "");
  if (!save.empty()) {
    graph::save_graph_file(save, g);
    std::cout << "\nSaved edge list to " << save << ".\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::cli_main(argc, argv, kUsage, run); }
