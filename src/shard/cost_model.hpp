#pragma once

#include <cstdint>

#include "shard/traversal.hpp"

namespace gnnerator::shard {

/// Analytical off-chip transfer cost of walking an S x S shard grid in an
/// S-pattern (paper Table I). Costs are in units of shard-interval feature
/// transfers: one unit moves one interval's worth of features (n nodes x B
/// dims) on or off chip.
///
///   SRC stationary:  reads  = S*I + (S-1)*S - S + 1     writes = S^2 - S + 1
///   DST stationary:  reads  = (S^2 - S + 1) * I         writes = S
///
/// where S is the grid dimension and I is the maximum number of *input*
/// interval-features that must be resident at one time (I scales the read
/// side because every streamed shard must re-fetch its input features).
/// The serpentine walk saves the S-1 boundary reloads, hence the "+1 - S"
/// corrections relative to a naive S^2 walk.
struct ShardCost {
  double reads = 0.0;
  double writes = 0.0;

  [[nodiscard]] double total(double write_weight = 1.0) const {
    return reads + write_weight * writes;
  }
};

/// Table I, verbatim.
[[nodiscard]] ShardCost analytic_shard_cost(std::uint32_t grid_dim, double input_residency,
                                            Traversal t);

/// Table I decomposed by *what* moves, so per-stage consumers (the
/// compiler's traversal and autotune passes) can weight each component by
/// its actual price under the stage's residency/hand-off mode:
///
///   * src_reads        source interval-features streamed per pass
///   * partial_reloads  spilled partial accumulators read back (src-
///                      stationary column changes; zero for dst-stationary)
///   * partial_writes   partial accumulators spilled (same count)
///   * final_writes     completed columns written out — free (token-only)
///                      under a pipelined scratchpad hand-off
///
/// Sums reproduce Table I: reads = src_reads + partial_reloads,
/// writes = partial_writes + final_writes.
struct ShardCostBreakdown {
  double src_reads = 0.0;
  double partial_reloads = 0.0;
  double partial_writes = 0.0;
  double final_writes = 0.0;

  [[nodiscard]] double reads() const { return src_reads + partial_reloads; }
  [[nodiscard]] double writes() const { return partial_writes + final_writes; }
  /// Interval-transfer units that actually touch DRAM for a stage whose
  /// final writes cost `final_write_weight` (0 = pipelined hand-off, 1 =
  /// deferred spill) and whose partial spills cost `partial_write_weight`
  /// per direction.
  [[nodiscard]] double dram_units(double partial_write_weight = 1.0,
                                  double final_write_weight = 1.0) const {
    return src_reads + partial_write_weight * (partial_reloads + partial_writes) +
           final_write_weight * final_writes;
  }
};

[[nodiscard]] ShardCostBreakdown shard_cost_breakdown(std::uint32_t grid_dim,
                                                      double input_residency, Traversal t);

/// Chooses the traversal with the lower total cost (ties go to
/// dest-stationary, which is also what graph-first pipelining wants: column
/// completion is the producer hand-off point).
[[nodiscard]] Traversal choose_traversal(std::uint32_t grid_dim, double input_residency,
                                         double write_weight = 1.0);

}  // namespace gnnerator::shard
