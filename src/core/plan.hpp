#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "dense/gemm_op.hpp"
#include "gengine/shard_task.hpp"
#include "gnn/layers.hpp"
#include "graph/graph.hpp"
#include "shard/cost_model.hpp"
#include "shard/shard_grid.hpp"
#include "shard/sizing.hpp"
#include "shard/traversal.hpp"

namespace gnnerator::core {

/// How much of the simulator to run.
enum class SimMode {
  kTiming,      ///< cycle counts only; no tensor arithmetic, no allocation
  kFunctional,  ///< cycle counts plus full arithmetic (validated vs reference)
};

/// Names a tensor held by the runtime: the output of `stage` within
/// `layer`; stage == -1 is the layer's input (previous layer's output, or
/// the dataset features for layer 0).
struct TensorRef {
  std::uint32_t layer = 0;
  std::int32_t stage = -1;

  friend bool operator==(const TensorRef&, const TensorRef&) = default;
};

/// A lowered Dense Engine op: the GemmOp the timing run enqueues as is,
/// plus a functional descriptor (interpreted by the runtime — the plan
/// itself is pure data and can be inspected/tested without ever
/// simulating).
///
/// Functional semantics:
///   out[r, n] += sum_k A[r, k0 + k] * W[wrow_begin + k, n]
///   for r in [row_begin, row_end), n in [n_begin, n_end),
///   k in [0, k_end - k_begin); then activation if apply_act.
struct GemmWork : dense::GemmOp {
  TensorRef a;
  std::uint32_t row_begin = 0;
  std::uint32_t row_end = 0;
  std::uint32_t k_begin = 0;
  std::uint32_t k_end = 0;
  std::uint32_t wrow_begin = 0;
  std::uint32_t weight_index = 0;
  std::uint32_t n_begin = 0;
  std::uint32_t n_end = 0;
  TensorRef out;
  bool apply_act = false;
  gnn::Activation act = gnn::Activation::kNone;
  /// True when A plausibly contains many zeros (raw dataset features or a
  /// ReLU'd activation); the functional kernel keeps its row zero-skip only
  /// then. Aggregated inputs are dense and take the branch-free inner loop.
  bool a_maybe_sparse = true;
  std::uint32_t layer = 0;
};

/// A lowered Graph Engine task: one shard x one feature block — the
/// ShardTask the timing run enqueues as is, plus a functional descriptor.
///
/// Functional semantics: for every edge (u -> v) of the shard,
///   acc[v, d] (op)= coeff(u, v) * in[u, d]   for d in [d_begin, d_end);
/// if init_accumulator, the [column interval x block] region of acc is
/// first initialised to the op's identity (0, or -inf for max).
struct AggWork : gengine::ShardTask {
  std::uint32_t agg_stage = 0;  ///< index into LoweredModel::agg_stages
  shard::ShardCoord coord;
  std::uint32_t d_begin = 0;
  std::uint32_t d_end = 0;
  bool init_accumulator = false;
};

/// Per-aggregation-stage lowering decisions (one entry per Aggregate stage
/// in the model, in execution order).
struct AggStagePlan {
  std::uint32_t layer = 0;
  std::uint32_t stage_index = 0;  ///< index within layer_stages(layer)
  gnn::AggregateOp op = gnn::AggregateOp::kSum;
  std::size_t dims = 0;       ///< full aggregated dimensionality
  std::size_t block = 0;      ///< B actually used (== dims when unblocked)
  std::size_t num_blocks = 0;
  shard::Traversal traversal = shard::Traversal::kDestStationary;
  shard::ShardSizing sizing;
  std::shared_ptr<const shard::ShardGrid> grid;  ///< over the self-loop-augmented graph
  TensorRef input;
  TensorRef output;
  /// True when the consuming dense stage reads aggregated columns straight
  /// from the shared scratchpad (fine-grained pipelining); false when the
  /// aggregated features spill to DRAM and feature extraction is deferred
  /// until a column has all blocks (psum footprint too large to keep
  /// resident).
  bool pipelined_consume = true;
  /// True when the whole augmented edge list fits an edge-buffer bank, so
  /// block passes after the first re-process edges on-chip (Algorithm 1).
  bool edges_cached = false;
};

/// Per-dense-stage lowering decisions (one entry per Dense stage, in
/// execution order) — plan inspection / describe() material; the emitted
/// GemmWork ops already encode their consequences.
struct DenseStagePlan {
  std::uint32_t layer = 0;
  std::uint32_t stage_index = 0;
  /// True for dense-first producers (feed the next aggregation stage);
  /// false for graph-first consumers.
  bool producer_for_agg = false;
  /// Index into LoweredModel::agg_stages of the paired aggregation stage.
  std::uint32_t agg_stage = 0;
  /// Concat layer-input width ([z̄ ‖ h]); 0 when not concatenated.
  std::size_t h_dims = 0;
  /// Consumer psums stay resident in the output buffer (pipelined hand-off).
  bool psums_resident = false;
  /// A full-width K-slice of W shared across columns stays banked; the
  /// tail block's (possibly narrower) slice is tracked separately.
  bool w_resident_block = false;
  bool w_resident_tail_block = false;
  bool w_resident_h = false;
};

/// Everything the compiler decided, ready for the runtime to execute.
struct LoweredModel {
  gnn::ModelSpec model;
  AcceleratorConfig config;
  DataflowOptions options;

  /// Registered token names, index == TokenId (the runtime re-creates the
  /// SyncBoard from these).
  std::vector<std::string> token_names;

  std::vector<GemmWork> dense_program;  ///< in Dense Engine issue order
  std::vector<AggWork> graph_program;   ///< in Graph Engine issue order
  std::vector<AggStagePlan> agg_stages;
  std::vector<DenseStagePlan> dense_stages;

  /// The dataset graph with self loops added (aggregation runs over
  /// N(u) ∪ u); shard grids reference this.
  std::shared_ptr<const graph::Graph> agg_graph;
  /// In-degrees of the *original* graph (self-loop-free), indexed by node —
  /// the edge-coefficient inputs.
  std::vector<std::uint32_t> base_in_degree;

  /// Predicted off-chip traffic (bytes), for cross-checking against the
  /// simulated DRAM counters.
  std::uint64_t predicted_dram_bytes = 0;
  /// Total dense MACs and graph lane-ops in the program (work invariants).
  std::uint64_t total_macs = 0;
  std::uint64_t total_edge_visits = 0;

  /// Stable human-readable dump of every per-stage decision (block size,
  /// shard grid, traversal, residency, hand-off, token wiring) plus the
  /// program summary — the `--dump-plan` / golden-test surface. The format
  /// is covered by golden-text tests: change it deliberately.
  [[nodiscard]] std::string describe() const;
};

}  // namespace gnnerator::core
