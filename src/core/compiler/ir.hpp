#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/compiler/artifacts.hpp"
#include "core/plan.hpp"
#include "gnn/layers.hpp"
#include "graph/graph.hpp"

namespace gnnerator::core::compiler {

/// Byte widths shared by every pass: the autotune cost model's traffic
/// predictions and the emit pass's per-task byte accounting must agree on
/// these, so they are defined exactly once.
inline constexpr std::uint64_t kBytesPerValue = sizeof(float);
inline constexpr std::uint64_t kEdgeRecordBytes = 2 * sizeof(graph::NodeId);

/// How a dense stage relates to its neighbouring aggregation stage.
enum class DenseRole {
  kProducer,  ///< dense-first: feeds the *next* aggregation stage (SagePool's Wp)
  kConsumer,  ///< graph-first: reads the *previous* aggregation stage's output
};

/// Per-dense-stage lowering decisions resolved by the residency pass.
/// Sequence-local choices (weight reuse across consecutive emissions, chunk
/// shapes) stay in the emit pass — they are mechanical tiling, not policy.
struct DenseDecisions {
  DenseRole role = DenseRole::kConsumer;
  /// Index (into StageGraph::nodes) of the paired aggregation node.
  std::uint32_t agg_node = 0;
  /// Width of the concat layer-input part ([z̄ ‖ h]); 0 when not concat.
  std::size_t h_dims = 0;
  /// Consumer only: psums for the whole output stay in the output buffer
  /// (mirrors the paired stage's pipelined hand-off).
  bool psums_resident = true;
  /// Weight-slice residency per K-slice width the stage will emit: a slice
  /// shared across columns stays banked iff it fits a weight bank.
  bool w_resident_full_block = false;
  bool w_resident_tail_block = false;
  bool w_resident_h = false;
};

/// One node of the stage-graph IR: a Dense or Aggregate stage of one layer,
/// in execution order, accumulating decisions as passes run. Aggregate
/// decisions live in the same AggStagePlan record the LoweredModel exposes;
/// the emit pass copies it over verbatim.
struct StageNode {
  std::uint32_t layer = 0;
  std::uint32_t stage_index = 0;  ///< within gnn::layer_stages(layer)
  gnn::StageSpec spec;

  // Aggregate stages only.
  AggStagePlan agg;
  /// True when the autotune pass overrode the default block/traversal.
  bool tuned = false;

  // Dense stages only.
  DenseDecisions dense;

  [[nodiscard]] bool is_aggregate() const {
    return spec.kind == gnn::StageSpec::Kind::kAggregate;
  }
};

/// A dataflow edge between stage nodes.
struct StageEdge {
  enum class Kind {
    kPipelined,   ///< producer hands off through the shared scratchpad (tokens)
    kSpilled,     ///< producer spills to DRAM; consumer re-reads (deferred)
    kLayerChain,  ///< layer boundary: consumer waits on the L<k>.done token
  };
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  Kind kind = Kind::kPipelined;
};

/// Which decision families have been resolved so far. The PassManager's
/// inter-pass validation only checks invariants whose family is marked
/// complete, so passes can run with partially-lowered IR.
enum StageDecision : unsigned {
  kStagesBuilt = 1u << 0,
  kBlocksChosen = 1u << 1,
  kShardsSized = 1u << 2,
  kTraversalsChosen = 1u << 3,
  kResidencyAssigned = 1u << 4,
  kTokensThreaded = 1u << 5,
  kProgramsEmitted = 1u << 6,
};

/// The compiler's working state: an inspectable stage graph plus the
/// lowering inputs and (after the emit pass) the finished LoweredModel.
struct StageGraph {
  // Inputs (set by the Compiler facade before any pass runs).
  const graph::Graph* dataset_graph = nullptr;
  AcceleratorConfig config;
  DataflowOptions options;
  gnn::ModelSpec model;
  /// Analysis-only pipelines (Compiler::resolve) skip the O(V + E) artefacts
  /// — the aggregation graph, base degrees, shard grids — that only the emit
  /// pass consumes; every *decision* is still resolved identically.
  bool analysis_only = false;
  /// Where full compiles fetch the aggregation graph and shard grids: a memo
  /// over `dataset_graph` that outlives this compile when the caller has one
  /// (Engine registrations), one built for this compile otherwise.
  GraphArtifacts* artifacts = nullptr;

  // Stage graph (build pass).
  std::vector<StageNode> nodes;  ///< execution order
  std::vector<StageEdge> edges;
  /// nodes[] indices per layer, in stage order.
  std::vector<std::vector<std::uint32_t>> layer_nodes;
  /// Edge count of the self-loop-augmented aggregation graph (|E| + nodes
  /// missing a self loop) — cheap to compute without building the graph.
  std::uint64_t agg_edge_count = 0;

  // Heavy artefacts (build pass, full compiles only).
  std::shared_ptr<const graph::Graph> agg_graph;
  std::vector<std::uint32_t> base_in_degree;

  // Token tables (token-threading pass). Indexed like nodes[].
  // col_tokens[node][b][c]: block b of destination column c aggregated.
  // ivl_tokens[node][b][r]: z block b of source interval r produced
  // (dense-first aggregation stages only).
  std::vector<std::vector<std::vector<sim::TokenId>>> col_tokens;
  std::vector<std::vector<std::vector<sim::TokenId>>> ivl_tokens;
  std::vector<sim::TokenId> layer_tokens;  ///< "L<k>.done", indexed by layer
  std::vector<std::string> token_names;

  // Output (emit pass).
  LoweredModel lowered;

  /// Bitmask of StageDecision values.
  unsigned completed = 0;

  [[nodiscard]] bool done(StageDecision d) const { return (completed & d) != 0; }
  void mark(StageDecision d) { completed |= d; }
};

/// Structural invariants of the IR, graded by the decision families marked
/// complete. Throws util::CheckError naming the violated invariant; the
/// PassManager prefixes the failing pass's name.
void validate_stage_graph(const StageGraph& ir);

}  // namespace gnnerator::core::compiler
