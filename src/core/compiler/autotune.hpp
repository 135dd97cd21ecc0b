#pragma once

#include <cstdint>
#include <vector>

#include "core/compiler/ir.hpp"
#include "shard/traversal.hpp"

namespace gnnerator::core::compiler {

/// Everything the autotune cost model needs about one aggregation stage.
struct StageShape {
  std::uint64_t num_nodes = 0;
  std::uint64_t agg_edges = 0;   ///< self-loop-augmented edge count
  std::size_t dims = 0;          ///< aggregated feature dimensionality
  std::size_t consumer_out = 0;  ///< N of the consuming dense stage
  std::size_t h_dims = 0;        ///< concat layer-input width (consumer)
  std::size_t producer_in = 0;   ///< K of the producing dense stage (dense-first), else 0
  bool pipelined = false;        ///< consumer hand-off mode (block-invariant)
  bool edges_cached = false;
};

/// One candidate's predicted stage cost.
struct CandidateCost {
  std::size_t block = 0;
  shard::Traversal traversal = shard::Traversal::kDestStationary;
  double cycles = 0.0;
  bool feasible = false;
};

/// The analytic per-stage cost model (documented in autotune.cpp): DRAM
/// traffic from the Table I breakdown + emit rules, Graph/Dense Engine
/// compute from the SCALE-Sim tile formulas, plus pipeline serialisation
/// tails. Exposed so tests can assert the pass picks what the model
/// predicts.
[[nodiscard]] CandidateCost evaluate_stage_candidate(const StageGraph& ir,
                                                     const StageShape& shape,
                                                     std::size_t block,
                                                     shard::Traversal traversal);

/// The StageShape the autotune pass derives for aggregation node `i`.
[[nodiscard]] StageShape stage_shape_for(const StageGraph& ir, std::uint32_t i);

/// Array-aligned block candidates for a stage of `dims` features.
[[nodiscard]] std::vector<std::size_t> autotune_block_candidates(const StageGraph& ir,
                                                                 std::size_t dims);

/// Deviation margin: a candidate replaces the paper-default choice only
/// when its predicted cost is at least this fraction lower. Near-ties stay
/// on the paper-default dataflow — the model captures first-order effects
/// (traffic scaling with the grid dimension, array k-tile utilisation,
/// producer re-streaming, serialisation tails), not cycle-level contention.
inline constexpr double kAutotuneDeviationMargin = 0.05;

}  // namespace gnnerator::core::compiler
