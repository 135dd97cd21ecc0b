#include "core/compiler.hpp"

#include <optional>
#include <sstream>
#include <utility>

#include "core/compiler/autotune.hpp"
#include "core/compiler/ir.hpp"
#include "core/compiler/pass_manager.hpp"
#include "shard/traversal.hpp"
#include "util/check.hpp"

namespace gnnerator::core {

namespace {

/// `artifacts` is null for analysis-only pipelines, which build no
/// artefacts.
compiler::StageGraph make_ir(const graph::Graph& dataset_graph, const AcceleratorConfig& config,
                             const DataflowOptions& options, const gnn::ModelSpec& model,
                             compiler::GraphArtifacts* artifacts) {
  compiler::StageGraph ir;
  ir.dataset_graph = &dataset_graph;
  ir.config = config;
  ir.options = options;
  ir.model = model;
  ir.analysis_only = artifacts == nullptr;
  ir.artifacts = artifacts;
  return ir;
}

}  // namespace

Compiler::Compiler(const graph::Graph& dataset_graph, AcceleratorConfig config,
                   DataflowOptions options, std::shared_ptr<compiler::GraphArtifacts> artifacts)
    : dataset_graph_(dataset_graph),
      config_(std::move(config)),
      options_(options),
      artifacts_(std::move(artifacts)) {
  GNNERATOR_CHECK_MSG(artifacts_ == nullptr || &artifacts_->graph() == &dataset_graph_,
                      "compile artifacts memoize a different graph");
  config_.validate();
}

LoweredModel Compiler::compile(const gnn::ModelSpec& model) {
  // Without a caller's memo, one that lives for this compile still lets
  // stages with equal interval sizes share a grid.
  std::optional<compiler::GraphArtifacts> local;
  compiler::GraphArtifacts* artifacts = artifacts_.get();
  if (artifacts == nullptr) {
    artifacts = &local.emplace(dataset_graph_);
  }
  compiler::StageGraph ir = make_ir(dataset_graph_, config_, options_, model, artifacts);
  compiler::standard_pipeline(options_).run(ir);
  return std::move(ir.lowered);
}

PlanSignature Compiler::resolve(const gnn::ModelSpec& model) {
  compiler::StageGraph ir =
      make_ir(dataset_graph_, config_, options_, model, /*artifacts=*/nullptr);
  compiler::standard_pipeline(options_, /*analysis_only=*/true).run(ir);

  PlanSignature signature;
  for (const compiler::StageNode& node : ir.nodes) {
    if (!node.is_aggregate()) {
      continue;
    }
    StageChoice choice;
    choice.layer = node.layer;
    choice.stage_index = node.stage_index;
    choice.block = node.agg.block;
    choice.nodes_per_shard = node.agg.sizing.nodes_per_shard;
    choice.grid_dim = node.agg.sizing.grid_dim;
    choice.traversal = node.agg.traversal;
    choice.pipelined_consume = node.agg.pipelined_consume;
    choice.edges_cached = node.agg.edges_cached;
    choice.tuned = node.tuned;
    signature.push_back(choice);
  }
  return signature;
}

double Compiler::estimate_cycles(const gnn::ModelSpec& model) {
  compiler::StageGraph ir =
      make_ir(dataset_graph_, config_, options_, model, /*artifacts=*/nullptr);
  compiler::standard_pipeline(options_, /*analysis_only=*/true).run(ir);

  double total = 0.0;
  for (std::uint32_t i = 0; i < ir.nodes.size(); ++i) {
    const compiler::StageNode& node = ir.nodes[i];
    if (!node.is_aggregate()) {
      continue;  // dense work is folded into its paired stage's cost
    }
    const compiler::StageShape shape = compiler::stage_shape_for(ir, i);
    const compiler::CandidateCost cost = compiler::evaluate_stage_candidate(
        ir, shape, node.agg.block, node.agg.traversal);
    // The pipeline validated these choices, so the candidate is feasible.
    total += cost.cycles;
  }
  return total;
}

std::string format_signature(const PlanSignature& signature) {
  std::ostringstream os;
  for (std::size_t i = 0; i < signature.size(); ++i) {
    const StageChoice& c = signature[i];
    if (i > 0) {
      os << ';';
    }
    os << 'L' << c.layer << ".S" << c.stage_index << ":B" << c.block << ",n"
       << c.nodes_per_shard << ",S" << c.grid_dim << ','
       << (c.traversal == shard::Traversal::kDestStationary ? "dst" : "src") << ','
       << (c.pipelined_consume ? "pipe" : "spill") << ','
       << (c.edges_cached ? "cache" : "stream");
    // `tuned` is deliberately omitted: it is provenance, not a decision —
    // a pinned spelling of the same choices must produce the same key.
  }
  return os.str();
}

LoweredModel compile_model(const graph::Graph& dataset_graph, const gnn::ModelSpec& model,
                           const AcceleratorConfig& config, const DataflowOptions& options) {
  Compiler compiler(dataset_graph, config, options);
  return compiler.compile(model);
}

PlanSignature resolve_stage_choices(const graph::Graph& dataset_graph,
                                    const gnn::ModelSpec& model,
                                    const AcceleratorConfig& config,
                                    const DataflowOptions& options) {
  Compiler compiler(dataset_graph, config, options);
  return compiler.resolve(model);
}

}  // namespace gnnerator::core
