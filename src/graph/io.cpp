#include "graph/io.hpp"

#include <fstream>
#include <string>

#include "util/check.hpp"

namespace gnnerator::graph {

namespace {
constexpr const char* kMagic = "# gnnerator-graph v1";
}

void save_graph(std::ostream& out, const Graph& graph) {
  out << kMagic << '\n';
  out << graph.num_nodes() << ' ' << graph.num_edges() << '\n';
  for (const Edge& e : graph.edges()) {
    out << e.src << ' ' << e.dst << '\n';
  }
  GNNERATOR_CHECK_MSG(out.good(), "stream error while saving graph");
}

void save_graph_file(const std::string& path, const Graph& graph) {
  std::ofstream out(path, std::ios::trunc);
  GNNERATOR_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  save_graph(out, graph);
}

}  // namespace gnnerator::graph
