#include "graph/builder.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gnnerator::graph {

GraphBuilder::GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {
  GNNERATOR_CHECK(num_nodes > 0);
}

GraphBuilder& GraphBuilder::add_edge(NodeId src, NodeId dst) {
  GNNERATOR_CHECK_MSG(src < num_nodes_ && dst < num_nodes_,
                      "edge (" << src << "," << dst << ") out of range for V=" << num_nodes_);
  edges_.push_back(Edge{src, dst});
  return *this;
}

GraphBuilder& GraphBuilder::add_undirected_edge(NodeId a, NodeId b) {
  add_edge(a, b);
  if (a != b) {
    add_edge(b, a);
  }
  return *this;
}

Graph GraphBuilder::build() {
  canonicalize();
  return Graph(num_nodes_, edges_);
}

void GraphBuilder::canonicalize() {
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
}

}  // namespace gnnerator::graph
