#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"

namespace gnnerator::graph {

/// Immutable directed graph in dual CSR form (by-source and by-destination),
/// plus the canonical edge list sorted by (src, dst).
///
/// The structure is deliberately feature-free: node/edge features live in
/// `gnnerator::gnn`. The accelerator only needs structure here — the Shard
/// Edge Fetch unit streams edges, the Feature Fetch units translate node ids
/// into scratchpad addresses.
///
/// Construct via `GraphBuilder` (which validates ids, deduplicates and sorts)
/// or the generators in `generate.hpp`.
class Graph {
 public:
  /// Builds from an already-sorted, deduplicated edge list. Prefer
  /// GraphBuilder unless the input is known canonical. Throws CheckError if
  /// ids are out of range or the list is not strictly sorted.
  Graph(NodeId num_nodes, std::vector<Edge> sorted_edges);

  [[nodiscard]] NodeId num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }

  /// All edges, sorted by (src, dst).
  [[nodiscard]] std::span<const Edge> edges() const { return edges_; }

  /// Out-neighbours of `u` (targets of edges u -> v), ascending.
  [[nodiscard]] std::span<const NodeId> out_neighbors(NodeId u) const;

  /// In-neighbours of `v` (sources of edges u -> v), ascending.
  [[nodiscard]] std::span<const NodeId> in_neighbors(NodeId v) const;

  [[nodiscard]] std::size_t out_degree(NodeId u) const;
  [[nodiscard]] std::size_t in_degree(NodeId v) const;

  /// True if edge (u, v) exists. O(log out_degree(u)).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// True if for every edge (u, v) the reverse (v, u) also exists.
  [[nodiscard]] bool is_symmetric() const;

  /// Number of self loops (u, u), counted once at construction.
  [[nodiscard]] std::size_t num_self_loops() const { return num_self_loops_; }

  /// Overrides the degrees aggregation coefficients are computed from
  /// (one value per node). A sampled subgraph sets this to the parent
  /// graph's in-degrees so truncated structure still produces the parent's
  /// GCN-norm/mean coefficients; plain graphs leave it unset and
  /// coeff_in_degree() falls back to the structural in-degree.
  void set_coeff_in_degrees(std::vector<std::uint32_t> degrees);
  [[nodiscard]] bool has_coeff_in_degrees() const { return !coeff_in_degrees_.empty(); }
  [[nodiscard]] std::span<const std::uint32_t> coeff_in_degrees() const {
    return coeff_in_degrees_;
  }
  /// The degree aggregation coefficients use for `v`: the override when
  /// set, else the structural in-degree.
  [[nodiscard]] std::size_t coeff_in_degree(NodeId v) const;

 private:
  NodeId num_nodes_;
  // At most one self loop per node, so a NodeId holds the count; beside
  // num_nodes_ it fills padding and Graph keeps its size.
  NodeId num_self_loops_ = 0;
  std::vector<Edge> edges_;              // sorted by (src, dst)
  std::vector<std::size_t> out_offsets_; // CSR over edges_ (size V+1)
  std::vector<NodeId> out_targets_;      // == dst column of edges_
  std::vector<std::size_t> in_offsets_;  // CSC (size V+1)
  std::vector<NodeId> in_sources_;       // sources grouped by dst, ascending
  std::vector<std::uint32_t> coeff_in_degrees_;  // empty = no override
};

}  // namespace gnnerator::graph
