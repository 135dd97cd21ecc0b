#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace gnnerator::gengine {

/// Geometry of the Graph Engine's compute fabric (paper §III-B): the Shard
/// Compute Unit replicates a Graph Processing Element — Edge Fetcher,
/// Feature Fetchers, a SIMD Apply Unit and a SIMD Reduce Unit — `num_gpes`
/// times to exploit inter-node parallelism; each Apply/Reduce unit is
/// `simd_lanes` wide to exploit intra-node parallelism across feature
/// dimensions. Table IV's 2 TFLOP Graph Engine at 1 GHz with 32-lane units
/// (the B=32 point of Fig. 4 is "the width of the Graph Engine lanes")
/// gives 32 GPEs x (32-lane apply + 32-lane reduce).
struct GpeGeometry {
  std::uint32_t num_gpes = 32;
  std::uint32_t simd_lanes = 32;

  /// Lane-ops per cycle counting both Apply and Reduce units.
  [[nodiscard]] std::uint64_t ops_per_cycle() const {
    return 2ULL * num_gpes * simd_lanes;
  }
};

/// Splits a shard's edge list (sorted destination-major) into per-GPE
/// contiguous destination ranges, greedily balanced by edge count. Contiguity
/// by destination guarantees two GPEs never accumulate into the same node,
/// so no cross-GPE write conflicts exist. Returns per-GPE edge counts
/// (size <= num_gpes; empty tail GPEs omitted).
[[nodiscard]] std::vector<std::uint32_t> partition_edges_by_dst(
    std::span<const graph::Edge> edges, std::uint32_t num_gpes);

/// The largest per-GPE edge count of partition_edges_by_dst (0 for no
/// edges). It does not depend on the feature block width, so a shard
/// processed at several widths needs it once.
[[nodiscard]] std::uint32_t max_gpe_edges(std::span<const graph::Edge> edges,
                                          std::uint32_t num_gpes);

/// Cycles for the Shard Compute Unit to process a shard at a feature block
/// of `block_dims` dimensions: the Edge Fetcher feeds one edge per cycle per
/// GPE and each edge occupies the Apply/Reduce pipeline for
/// ceil(block_dims / simd_lanes) cycles, so a GPE with E_g edges takes
/// E_g * max(1, ceil(B/lanes)) cycles; the shard takes the max over GPEs
/// plus a small pipeline fill.
[[nodiscard]] std::uint64_t shard_compute_cycles(std::span<const graph::Edge> edges,
                                                 const GpeGeometry& geometry,
                                                 std::size_t block_dims);
/// The same, from the shard's `max_edges` = max_gpe_edges(edges,
/// geometry.num_gpes).
[[nodiscard]] std::uint64_t shard_compute_cycles(std::uint32_t max_edges,
                                                 const GpeGeometry& geometry,
                                                 std::size_t block_dims);

}  // namespace gnnerator::gengine
