#pragma once

#include "core/compiler/ir.hpp"

namespace gnnerator::core::compiler {

/// === The standard passes (pass_manager.cpp wires them in order) ==========

/// Model -> stage graph: validates the model, creates one StageNode per
/// (layer, stage) with dataflow edges (pipelined/spilled resolved later;
/// layer-chain edges at layer boundaries), computes the augmented-graph edge
/// count, and — for full compiles — fetches the self-loop-augmented
/// aggregation graph from ir.artifacts and fills the base in-degrees.
void build_stage_graph_pass(StageGraph& ir);

/// Chooses the feature block size B per aggregation stage (Algorithm 1):
/// the global DataflowOptions act as defaults/overrides — an explicit
/// block_size (or feature_blocking=false) pins every stage; otherwise each
/// stage defaults to the Dense Engine array width, clamped to its dims.
void feature_blocking_pass(StageGraph& ir);

/// Cost-model-driven per-stage search over (block size, traversal): for
/// each aggregation stage not pinned by a global override, evaluates
/// array-aligned block candidates x both traversals with the analytic stage
/// cost (autotune.cpp) and adopts the winner only when it beats the default
/// choice by more than the deviation margin.
void autotune_pass(StageGraph& ir);

/// Solves shard-interval sizing per aggregation stage: the largest n whose
/// src/dst feature working set at width B fits the Graph Engine scratch,
/// and hence the grid dimension S (paper §IV-B); full compiles fetch the
/// stage's grid for that n from ir.artifacts.
void shard_sizing_pass(StageGraph& ir);

/// Chooses the traversal order per aggregation stage at its resolved S via
/// the Table I cost model, unless pinned globally or by the autotune pass.
void traversal_selection_pass(StageGraph& ir);

/// Operand residency + engine hand-off: per aggregation stage, whether the
/// consuming dense stage keeps psums resident (fine-grained pipelined
/// hand-off through the shared scratchpad) or the aggregated features spill
/// to DRAM (deferred feature extraction), and whether the edge list is
/// cached on-chip across block passes; per dense stage, weight-slice
/// residency for each K-slice width it will emit.
void residency_handoff_pass(StageGraph& ir);

/// Allocates the Controller token tables: per aggregation stage the column
/// tokens (and, for dense-first stages, the source-interval tokens), plus
/// one L<k>.done token per layer — in the exact registration order the
/// runtime's SyncBoard expects.
void token_threading_pass(StageGraph& ir);

/// Final lowering: walks the stage graph in execution order and emits the
/// Dense and Graph Engine programs into ir.lowered, byte-identical to the
/// pre-pass-pipeline compiler for any fully-pinned decision set.
void emit_pass(StageGraph& ir);

/// === Shared decision helpers (single source of truth) ====================

/// The default block for an aggregation stage of `dims` features: the Dense
/// Engine array width (the paper's B = 64), clamped to dims; dims itself
/// when blocking is disabled.
[[nodiscard]] std::size_t default_block(const StageGraph& ir, std::size_t dims);

/// Whether the dense stage consuming `agg_dims -> out_dim` keeps its psums
/// resident (hand-off mode): true iff the full output footprint fits the
/// dense output buffer.
[[nodiscard]] bool consumer_psums_fit(const StageGraph& ir, std::size_t out_dim);

/// Whether the whole augmented edge list fits an edge-buffer bank (enables
/// Algorithm 1's on-chip re-processing across blocks).
[[nodiscard]] bool edge_list_cacheable(const StageGraph& ir);

/// Index of the dense stage consuming aggregation node `node` (the next
/// node in the same layer); checks it exists.
[[nodiscard]] std::uint32_t consumer_of(const StageGraph& ir, std::uint32_t node);

}  // namespace gnnerator::core::compiler
