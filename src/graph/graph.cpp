#include "graph/graph.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace gnnerator::graph {

Graph::Graph(NodeId num_nodes, std::vector<Edge> sorted_edges)
    : num_nodes_(num_nodes), edges_(std::move(sorted_edges)) {
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const Edge& e = edges_[i];
    GNNERATOR_CHECK_MSG(e.src < num_nodes_ && e.dst < num_nodes_,
                        "edge (" << e.src << "," << e.dst << ") out of range for V=" << num_nodes_);
    if (i > 0) {
      GNNERATOR_CHECK_MSG(edges_[i - 1] < e, "edge list must be strictly sorted and deduplicated");
    }
    num_self_loops_ += e.src == e.dst ? 1 : 0;
  }

  // CSR by source. edges_ is already grouped by src, so targets are a copy of
  // the dst column.
  out_offsets_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  out_targets_.resize(edges_.size());
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    ++out_offsets_[edges_[i].src + 1];
    out_targets_[i] = edges_[i].dst;
  }
  for (std::size_t v = 0; v < num_nodes_; ++v) {
    out_offsets_[v + 1] += out_offsets_[v];
  }

  // CSC by destination via counting sort; sources come out ascending per
  // destination because edges_ is sorted by (src, dst).
  in_offsets_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  for (const Edge& e : edges_) {
    ++in_offsets_[e.dst + 1];
  }
  for (std::size_t v = 0; v < num_nodes_; ++v) {
    in_offsets_[v + 1] += in_offsets_[v];
  }
  in_sources_.resize(edges_.size());
  std::vector<std::size_t> cursor(in_offsets_.begin(), in_offsets_.end() - 1);
  for (const Edge& e : edges_) {
    in_sources_[cursor[e.dst]++] = e.src;
  }
}

std::span<const NodeId> Graph::out_neighbors(NodeId u) const {
  GNNERATOR_CHECK(u < num_nodes_);
  return {out_targets_.data() + out_offsets_[u], out_offsets_[u + 1] - out_offsets_[u]};
}

std::span<const NodeId> Graph::in_neighbors(NodeId v) const {
  GNNERATOR_CHECK(v < num_nodes_);
  return {in_sources_.data() + in_offsets_[v], in_offsets_[v + 1] - in_offsets_[v]};
}

std::size_t Graph::out_degree(NodeId u) const {
  GNNERATOR_CHECK(u < num_nodes_);
  return out_offsets_[u + 1] - out_offsets_[u];
}

std::size_t Graph::in_degree(NodeId v) const {
  GNNERATOR_CHECK(v < num_nodes_);
  return in_offsets_[v + 1] - in_offsets_[v];
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  const auto nbrs = out_neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

bool Graph::is_symmetric() const {
  for (const Edge& e : edges_) {
    if (!has_edge(e.dst, e.src)) {
      return false;
    }
  }
  return true;
}

void Graph::set_coeff_in_degrees(std::vector<std::uint32_t> degrees) {
  GNNERATOR_CHECK_MSG(degrees.size() == num_nodes_,
                      "coefficient-degree override has " << degrees.size()
                                                         << " entries for V=" << num_nodes_);
  coeff_in_degrees_ = std::move(degrees);
}

std::size_t Graph::coeff_in_degree(NodeId v) const {
  GNNERATOR_CHECK(v < num_nodes_);
  if (coeff_in_degrees_.empty()) {
    return in_offsets_[v + 1] - in_offsets_[v];
  }
  return coeff_in_degrees_[v];
}

}  // namespace gnnerator::graph
