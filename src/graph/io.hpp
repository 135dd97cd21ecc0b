#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace gnnerator::graph {

/// Plain-text edge-list format:
///
///   # gnnerator-graph v1
///   <num_nodes> <num_edges>
///   <src> <dst>
///   ...
///
/// Edges are written in the graph's canonical (src, dst) order, so one
/// graph always produces the same text.

void save_graph(std::ostream& out, const Graph& graph);
void save_graph_file(const std::string& path, const Graph& graph);

}  // namespace gnnerator::graph
