#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/compiler/ir.hpp"
#include "core/plan.hpp"
#include "gnn/layers.hpp"
#include "graph/graph.hpp"

namespace gnnerator::core {

/// One aggregation stage's fully-resolved dataflow decisions — the output
/// of the compiler's analysis passes, before any program is emitted. These
/// are what make two requests *plan-equivalent*: the emitted programs (and
/// therefore cycles, stats and outputs) are a pure function of (graph,
/// model, accelerator config, sparsity flag, per-stage choices), so the
/// plan cache keys on this signature rather than on the raw option knobs.
struct StageChoice {
  std::uint32_t layer = 0;
  std::uint32_t stage_index = 0;
  std::size_t block = 0;
  graph::NodeId nodes_per_shard = 0;
  std::uint32_t grid_dim = 0;
  shard::Traversal traversal = shard::Traversal::kDestStationary;
  bool pipelined_consume = false;
  bool edges_cached = false;
  /// True when the autotune pass deviated from the paper-default choice.
  /// Reporting only: excluded from equality and from the cache key, so an
  /// autotuned request and an explicitly-pinned request that resolve to
  /// the same choices share one plan.
  bool tuned = false;

  friend bool operator==(const StageChoice& a, const StageChoice& b) {
    return a.layer == b.layer && a.stage_index == b.stage_index && a.block == b.block &&
           a.nodes_per_shard == b.nodes_per_shard && a.grid_dim == b.grid_dim &&
           a.traversal == b.traversal && a.pipelined_consume == b.pipelined_consume &&
           a.edges_cached == b.edges_cached;
  }
};

using PlanSignature = std::vector<StageChoice>;

/// Compact stable rendering for plan-cache keys and logs, e.g.
/// "L0.S0:B64,n2708,S1,dst,pipe,cache".
[[nodiscard]] std::string format_signature(const PlanSignature& signature);

/// The prototype compiler (paper §V): lowers a GNN model onto GNNerator.
///
/// Structured as a pass pipeline over an explicit stage-graph IR
/// (core/compiler/): model -> stage-graph construction, per-stage feature
/// blocking (Algorithm 1), optional cost-model autotuning, shard
/// sizing/grid, traversal selection (Table I), operand residency + engine
/// hand-off, token threading, and a final emit pass that produces the
/// LoweredModel. The IR is validated between passes, so an infeasible
/// configuration fails with the offending pass named.
///
/// Every decision is resolved **per aggregation stage**; the global
/// DataflowOptions act as defaults/overrides (see config.hpp).
class Compiler {
 public:
  /// `dataset_graph` is the raw (self-loop-free) graph; the compiler
  /// augments it with self loops for aggregation. `artifacts`, when set, is
  /// a memo over `dataset_graph` that compiles share the self-loop graph and
  /// shard grids through (Engine gives one to each registered dataset);
  /// without one, each compile builds its own.
  Compiler(const graph::Graph& dataset_graph, AcceleratorConfig config,
           DataflowOptions options,
           std::shared_ptr<compiler::GraphArtifacts> artifacts = nullptr);

  /// Lowers `model`; throws CheckError on infeasible configurations (e.g. a
  /// block that cannot fit a single node on-chip), naming the pass that
  /// rejected them.
  [[nodiscard]] LoweredModel compile(const gnn::ModelSpec& model);

  /// Runs the analysis passes only (no grids, tokens or programs) and
  /// returns the per-stage choices `compile` would lower with. Cheap —
  /// O(stages x candidates) — so callers can key caches on resolved
  /// choices before paying for a full compile.
  [[nodiscard]] PlanSignature resolve(const gnn::ModelSpec& model);

  /// Analytic end-to-end cycle estimate for the plan `compile` would emit:
  /// the sum over aggregation stages of the autotune cost model
  /// (Table I ShardCostBreakdown traffic + SCALE-Sim tile sums + pipeline
  /// tails) evaluated at each stage's *resolved* choices. Microsecond-cheap
  /// (analysis passes only, no simulation) — the job-size oracle for
  /// shortest-job-first serving schedulers. Relative ordering across
  /// requests is what it is good for; it is not a cycle-accurate predictor.
  [[nodiscard]] double estimate_cycles(const gnn::ModelSpec& model);

 private:
  const graph::Graph& dataset_graph_;
  AcceleratorConfig config_;
  DataflowOptions options_;
  std::shared_ptr<compiler::GraphArtifacts> artifacts_;
};

/// One-call convenience wrapper.
[[nodiscard]] LoweredModel compile_model(const graph::Graph& dataset_graph,
                                         const gnn::ModelSpec& model,
                                         const AcceleratorConfig& config,
                                         const DataflowOptions& options);

/// One-call analysis wrapper (see Compiler::resolve).
[[nodiscard]] PlanSignature resolve_stage_choices(const graph::Graph& dataset_graph,
                                                  const gnn::ModelSpec& model,
                                                  const AcceleratorConfig& config,
                                                  const DataflowOptions& options);

}  // namespace gnnerator::core
