// Quickstart: compile a 2-layer GCN for the Cora-sized dataset through the
// Engine, run the cycle-level simulation functionally (multi-threaded
// arithmetic), validate the output against the reference CPU executor, and
// print the performance summary — then run the same request again to show
// the plan-cache hit.
//
//   ./quickstart [--dataset cora|citeseer|pubmed] [--no-blocking]
//                [--block N] [--threads N]
#include <algorithm>
#include <iostream>

#include "core/engine.hpp"
#include "core/gnnerator.hpp"
#include "core/report.hpp"
#include "core/runtime.hpp"
#include "gnn/reference.hpp"
#include "gnn/weights.hpp"
#include "util/args.hpp"
#include "util/cli.hpp"
#include "util/units.hpp"

using namespace gnnerator;

namespace {

constexpr std::string_view kUsage =
    "[--dataset cora|citeseer|pubmed|flickr] [--no-blocking] [--block N] [--autotune] "
    "[--threads N] [--dump-plan]";

int run(const util::Args& args) {
  const std::string ds_name = args.get("dataset", "cora");
  std::cout << "Loading dataset '" << ds_name << "' (synthetic Table II stand-in)...\n";
  const graph::Dataset dataset = graph::make_dataset_by_name(ds_name);
  std::cout << "  " << dataset.spec.num_nodes << " nodes, " << dataset.spec.num_edges
            << " edges, " << dataset.spec.feature_dim << "-dim features\n\n";

  // A 2-layer GCN: feature_dim -> 16 -> num_classes (paper Table III).
  const gnn::ModelSpec model = core::table3_model(gnn::LayerKind::kGcn, dataset.spec);

  core::SimulationRequest request;
  request.mode = core::SimMode::kFunctional;
  request.dataflow.feature_blocking = !args.has("no-blocking");
  request.dataflow.block_size = static_cast<std::size_t>(args.get_int("block", 0));
  request.dataflow.autotune = args.has("autotune");

  // The Engine owns the plan cache and the functional worker pool; one
  // instance serves every request of this process.
  core::Engine engine(core::EngineOptions{
      .num_threads = static_cast<std::size_t>(std::max<std::int64_t>(0, args.get_int("threads", 0)))});

  // Compile: the plan records every dataflow decision the paper describes.
  const auto plan_ptr = engine.plan_for(dataset, model, request);
  const core::LoweredModel& plan = *plan_ptr;

  if (util::dump_plan_requested(args)) {
    // Inspect what the compiler chose, without simulating anything.
    std::cout << plan.describe();
    return 0;
  }

  std::cout << core::format_config(request.config) << '\n';
  std::cout << "Compiled plan:\n";
  for (const core::AggStagePlan& stage : plan.agg_stages) {
    std::cout << "  layer " << stage.layer << " aggregation: op="
              << gnn::aggregate_op_name(stage.op) << " dims=" << stage.dims
              << " B=" << stage.block << " n=" << stage.sizing.nodes_per_shard
              << " S=" << stage.sizing.grid_dim << " traversal="
              << shard::traversal_name(stage.traversal)
              << (stage.pipelined_consume ? " (pipelined hand-off)" : " (deferred, spills)")
              << '\n';
  }
  std::cout << "  " << plan.dense_program.size() << " dense ops, "
            << plan.graph_program.size() << " graph tasks, " << plan.token_names.size()
            << " controller tokens\n\n";

  // Simulate (functional + timing). The compile above makes this a
  // plan-cache hit; the arithmetic runs on the Engine's worker pool.
  const core::ExecutionResult result = engine.run(dataset, model, request);
  std::cout << "Simulation summary:\n"
            << core::format_report(core::make_report(result, plan)) << '\n';

  // Validate against the golden reference.
  std::cout << "Validating against the reference executor...\n";
  gnn::Tensor features(dataset.spec.num_nodes, dataset.spec.feature_dim, dataset.features);
  const gnn::ModelWeights weights = gnn::init_weights(model, request.weight_seed);
  const gnn::ReferenceExecutor reference(dataset.graph);
  const gnn::Tensor expected = reference.run_model(model, weights, features);
  const float diff = gnn::Tensor::max_abs_diff(*result.output, expected);
  std::cout << "  max |accelerator - reference| = " << diff << '\n';
  if (diff > 1e-3f) {
    std::cout << "  MISMATCH - simulation bug!\n";
    return 1;
  }
  std::cout << "  OK: the sharded, blocked, pipelined execution is functionally exact.\n";

  // Same request again: no recompile, identical result.
  const core::ExecutionResult again = engine.run(dataset, model, request);
  const auto cache = engine.cache_stats();
  std::cout << "\nRe-ran the same request: " << again.cycles << " cycles (plan cache: "
            << cache.hits << " hits, " << cache.misses << " miss"
            << (cache.misses == 1 ? "" : "es") << ", " << engine.num_threads()
            << " thread" << (engine.num_threads() == 1 ? "" : "s") << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::cli_main(argc, argv, kUsage, run); }
