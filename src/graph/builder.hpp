#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "graph/types.hpp"

namespace gnnerator::graph {

/// Incremental graph constructor. Collects edges in any order, then
/// canonicalises (sort + dedup) in `build()`.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes);

  /// Adds a directed edge; ids must be < num_nodes. Duplicates are allowed
  /// and removed at build time.
  GraphBuilder& add_edge(NodeId src, NodeId dst);

  /// Adds both (src, dst) and (dst, src).
  GraphBuilder& add_undirected_edge(NodeId a, NodeId b);

  [[nodiscard]] std::size_t pending_edges() const { return edges_.size(); }
  [[nodiscard]] NodeId num_nodes() const { return num_nodes_; }

  /// Produces the immutable graph. The builder can keep being used after
  /// build(); it retains the (now canonical) edge set.
  [[nodiscard]] Graph build();

 private:
  NodeId num_nodes_;
  std::vector<Edge> edges_;

  void canonicalize();
};

}  // namespace gnnerator::graph
