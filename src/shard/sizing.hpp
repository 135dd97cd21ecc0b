#pragma once

#include <cstdint>

#include "graph/types.hpp"

namespace gnnerator::shard {

/// Result of solving for the largest shard-interval size n that fits the
/// Graph Engine scratchpads at a given feature block width B.
struct ShardSizing {
  graph::NodeId nodes_per_shard = 0;  // n
  std::uint32_t grid_dim = 0;         // S = ceil(V / n)
  std::uint64_t src_buffer_bytes = 0; // per working set (one buffer of a pair)
  std::uint64_t dst_buffer_bytes = 0;
  std::uint64_t edge_buffer_bytes = 0;
  std::uint64_t total_bytes = 0;      // everything, including double buffering
};

/// Scratchpad budgeting parameters for the Graph Engine.
struct SizingPolicy {
  /// Bytes of the edge scratchpad (double-buffered chunk store); edges are
  /// streamed, so this does not scale with shard size.
  std::uint64_t edge_buffer_bytes = 512 * 1024;
  /// Bytes per feature element (fp32).
  std::uint32_t bytes_per_value = 4;
  /// Source features are double-buffered (prefetch next shard during
  /// compute).
  bool double_buffer_sources = true;
  /// Destination accumulators are double-buffered (drain previous column
  /// while the next aggregates).
  bool double_buffer_dests = true;
};

/// Largest n such that
///     n*B*bytes * (src copies) + n*B*bytes * (dst copies) + edge buffer
/// fits in `scratch_bytes`, clamped to [1, num_nodes]. This is the heart of
/// the feature-blocking benefit (paper §IV-B): smaller B => larger n =>
/// smaller S => fewer off-chip transfers per Table I.
[[nodiscard]] ShardSizing choose_shard_size(std::uint64_t scratch_bytes, std::size_t block_dims,
                                            graph::NodeId num_nodes,
                                            const SizingPolicy& policy = {});

}  // namespace gnnerator::shard
