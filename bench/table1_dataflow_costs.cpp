// Reproduces paper Table I: the analytical read/write costs of the
// source-stationary and destination-stationary shard dataflows, and
// cross-checks the closed forms against the simulator's DMA counters.
//
//   SRC stationary: reads = S*I + (S-1)*S - S + 1    writes = S^2 - S + 1
//   DST stationary: reads = (S^2 - S + 1) * I        writes = S
//
// Units are interval-feature transfers; the simulated counters are bytes,
// normalised by the interval slice size. The simulated reads run slightly
// under the analytic bound when the shard grid has empty shards (the
// analytic model assumes a dense grid).
#include <iostream>

#include "bench_common.hpp"
#include "core/accelerator.hpp"
#include "core/compiler.hpp"
#include "shard/cost_model.hpp"
#include "util/cli.hpp"

namespace {

using namespace gnnerator;

/// Runs a single-layer GCN aggregation (one shard-grid walk per feature
/// block) with a forced traversal and returns the table row comparing its
/// feature-fetch traffic, in interval-loads, with the analytic costs.
std::vector<std::string> cross_check_row(const std::string& ds_name, shard::Traversal t) {
  const graph::Dataset& ds = bench::dataset(ds_name);
  // Single layer, unblocked, so the walk is exactly one pass of the grid.
  gnn::ModelSpec model;
  model.name = "gcn-1layer";
  model.layers.push_back(
      gnn::LayerSpec{gnn::LayerKind::kGcn, ds.spec.feature_dim, 16, gnn::Activation::kRelu});

  core::DataflowOptions options;
  options.feature_blocking = false;  // one block == one grid pass, as Table I assumes
  options.traversal = t;

  const core::LoweredModel plan =
      core::compile_model(ds.graph, model, core::AcceleratorConfig::table4(), options);
  const auto result = core::Accelerator::run(plan, nullptr);

  const auto& sizing = plan.agg_stages.front().sizing;
  const double interval_bytes = static_cast<double>(sizing.nodes_per_shard) *
                                static_cast<double>(plan.agg_stages.front().block) *
                                sizeof(float);
  const auto cost = shard::analytic_shard_cost(sizing.grid_dim, 1.0, t);
  const double simulated_reads =
      static_cast<double>(result.stats.get("graph.src_dma_bytes") +
                          result.stats.get("graph.dst_load_bytes")) /
      interval_bytes;
  const double simulated_writes =
      static_cast<double>(result.stats.get("graph.dst_write_bytes")) / interval_bytes;
  return {ds_name, std::string(shard::traversal_name(t)), std::to_string(sizing.grid_dim),
          util::Table::fixed(cost.reads, 1), util::Table::fixed(simulated_reads, 1),
          util::Table::fixed(cost.writes, 1), util::Table::fixed(simulated_writes, 1)};
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, "", [](const util::Args&) {
    std::cout << "\n=== Table I: analytical shard dataflow costs (I = 1) ===\n";
    util::Table analytic({"S", "SRC reads", "SRC writes", "DST reads", "DST writes"});
    for (const std::uint32_t S : {2u, 3u, 4u, 8u, 16u}) {
      const auto src = shard::analytic_shard_cost(S, 1.0, shard::Traversal::kSourceStationary);
      const auto dst = shard::analytic_shard_cost(S, 1.0, shard::Traversal::kDestStationary);
      analytic.add_row({std::to_string(S), util::Table::fixed(src.reads, 0),
                        util::Table::fixed(src.writes, 0), util::Table::fixed(dst.reads, 0),
                        util::Table::fixed(dst.writes, 0)});
    }
    std::cout << analytic.to_string();

    std::cout << "\n=== Analytic vs simulated interval-feature transfers ===\n";
    util::Table table({"Dataset", "Traversal", "S", "Reads (analytic)", "Reads (sim)",
                       "Writes (analytic)", "Writes (sim)"});
    for (const char* ds : {"cora", "citeseer", "pubmed"}) {
      for (const shard::Traversal t :
           {shard::Traversal::kSourceStationary, shard::Traversal::kDestStationary}) {
        table.add_row(cross_check_row(ds, t));
      }
    }
    std::cout << table.to_string();
    std::cout << "\nNote: simulated writes are lower than the analytic bound because fully\n"
                 "aggregated columns hand over to the Dense Engine through the shared\n"
                 "scratchpad instead of DRAM (paper Fig. 2 shared feature storage).\n";
    return 0;
  });
}
