#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace gnnerator::shard {

using graph::Edge;
using graph::NodeId;

/// Position of a shard in the 2-D grid: `row` indexes the source-node
/// interval, `col` the destination-node interval (paper Fig. 1).
struct ShardCoord {
  std::uint32_t row = 0;
  std::uint32_t col = 0;

  friend bool operator==(const ShardCoord&, const ShardCoord&) = default;
};

/// Two-dimensional sharding of a graph's edge list (GridGraph-style, paper
/// §II-B). The node id space [0, V) is cut into S contiguous intervals of at
/// most `nodes_per_shard` (the paper's n); shard (i, j) holds all edges from
/// interval i to interval j, so a shard never touches more than n source and
/// n destination nodes — which is what lets its working set fit on-chip.
///
/// Within a shard, edges are sorted destination-major (dst, then src): the
/// Shard Compute Unit partitions a shard's edges across GPEs by destination
/// range so two GPEs never accumulate into the same node.
class ShardGrid {
 public:
  /// Builds the grid in O(V + E + S^2) from the graph's CSR and CSC, which
  /// already hold the edges in the orders each shard needs.
  ShardGrid(const graph::Graph& graph, NodeId nodes_per_shard);

  /// Grid dimension S = ceil(V / n).
  [[nodiscard]] std::uint32_t dim() const { return dim_; }
  [[nodiscard]] NodeId nodes_per_shard() const { return nodes_per_shard_; }
  [[nodiscard]] NodeId num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t total_edges() const { return edges_.size(); }

  /// Node interval [begin, end) covered by grid index `idx` (row or col).
  [[nodiscard]] NodeId interval_begin(std::uint32_t idx) const;
  [[nodiscard]] NodeId interval_end(std::uint32_t idx) const;
  [[nodiscard]] NodeId interval_size(std::uint32_t idx) const;

  /// Edges of shard (row, col), sorted by (dst, src).
  [[nodiscard]] std::span<const Edge> shard_edges(ShardCoord c) const;

  /// Distinct source node ids with at least one edge in the shard,
  /// ascending. These are the features the Shard Feature Fetch Unit must
  /// load for this shard.
  [[nodiscard]] std::span<const NodeId> shard_sources(ShardCoord c) const;

  /// True if the shard holds no edges (it can be skipped entirely).
  [[nodiscard]] bool shard_empty(ShardCoord c) const { return shard_edges(c).empty(); }

  /// Number of non-empty shards.
  [[nodiscard]] std::size_t num_nonempty_shards() const;

 private:
  NodeId num_nodes_;
  NodeId nodes_per_shard_;
  std::uint32_t dim_;

  // Edges grouped by shard id (row * S + col); offsets_ has S^2 + 1 entries.
  std::vector<Edge> edges_;
  std::vector<std::size_t> offsets_;

  // Distinct active sources, grouped per shard.
  std::vector<NodeId> sources_;
  std::vector<std::size_t> source_offsets_;

  [[nodiscard]] std::size_t shard_index(ShardCoord c) const;
};

}  // namespace gnnerator::shard
