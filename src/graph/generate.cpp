#include "graph/generate.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "graph/builder.hpp"
#include "util/check.hpp"

namespace gnnerator::graph {

Graph erdos_renyi(NodeId num_nodes, std::size_t num_edges, util::Prng& prng) {
  const auto max_edges =
      static_cast<std::size_t>(num_nodes) * (static_cast<std::size_t>(num_nodes) - 1);
  GNNERATOR_CHECK_MSG(num_edges <= max_edges,
                      "G(n,m) with m=" << num_edges << " > n(n-1)=" << max_edges);
  std::unordered_set<Edge, EdgeHash> chosen;
  chosen.reserve(num_edges * 2);
  while (chosen.size() < num_edges) {
    const auto src = static_cast<NodeId>(prng.uniform_u64(num_nodes));
    const auto dst = static_cast<NodeId>(prng.uniform_u64(num_nodes));
    if (src == dst) {
      continue;
    }
    chosen.insert(Edge{src, dst});
  }
  std::vector<Edge> edges(chosen.begin(), chosen.end());
  std::sort(edges.begin(), edges.end());
  return Graph(num_nodes, std::move(edges));
}

Graph preferential_attachment(NodeId num_nodes, std::size_t edges_per_node, util::Prng& prng) {
  GNNERATOR_CHECK(edges_per_node >= 1);
  GNNERATOR_CHECK(num_nodes > edges_per_node);
  GraphBuilder builder(num_nodes);

  // Repeated-endpoint list: node v appears deg(v) times; sampling an index
  // uniformly implements degree-proportional selection.
  std::vector<NodeId> endpoint_pool;
  endpoint_pool.reserve(2 * edges_per_node * num_nodes);

  // Seed clique over the first m+1 nodes.
  const auto seed = static_cast<NodeId>(edges_per_node + 1);
  for (NodeId a = 0; a < seed; ++a) {
    for (NodeId b = a + 1; b < seed; ++b) {
      builder.add_undirected_edge(a, b);
      endpoint_pool.push_back(a);
      endpoint_pool.push_back(b);
    }
  }

  std::unordered_set<NodeId> targets;
  for (NodeId v = seed; v < num_nodes; ++v) {
    targets.clear();
    while (targets.size() < edges_per_node) {
      const NodeId pick = endpoint_pool[prng.uniform_u64(endpoint_pool.size())];
      if (pick != v) {
        targets.insert(pick);
      }
    }
    for (NodeId t : targets) {
      builder.add_undirected_edge(v, t);
      endpoint_pool.push_back(v);
      endpoint_pool.push_back(t);
    }
  }
  return builder.build();
}

Graph rmat(unsigned scale, std::size_t num_edges, double a, double b, double c,
           util::Prng& prng) {
  GNNERATOR_CHECK(scale >= 1 && scale <= 31);
  const double d = 1.0 - a - b - c;
  GNNERATOR_CHECK_MSG(a >= 0 && b >= 0 && c >= 0 && d >= -1e-9,
                      "R-MAT probabilities must be a partition, d=" << d);
  const auto num_nodes = static_cast<NodeId>(1ULL << scale);
  std::unordered_set<Edge, EdgeHash> chosen;
  chosen.reserve(num_edges * 2);
  while (chosen.size() < num_edges) {
    NodeId src = 0;
    NodeId dst = 0;
    for (unsigned level = 0; level < scale; ++level) {
      const double r = prng.uniform();
      src <<= 1;
      dst <<= 1;
      if (r < a) {
        // top-left quadrant: neither bit set
      } else if (r < a + b) {
        dst |= 1;
      } else if (r < a + b + c) {
        src |= 1;
      } else {
        src |= 1;
        dst |= 1;
      }
    }
    if (src == dst) {
      continue;
    }
    chosen.insert(Edge{src, dst});
  }
  std::vector<Edge> edges(chosen.begin(), chosen.end());
  std::sort(edges.begin(), edges.end());
  return Graph(num_nodes, std::move(edges));
}

Graph power_law(NodeId num_nodes, std::size_t num_edges, double alpha, util::Prng& prng) {
  const auto max_edges =
      static_cast<std::size_t>(num_nodes) * (static_cast<std::size_t>(num_nodes) - 1);
  GNNERATOR_CHECK(num_edges <= max_edges);
  GNNERATOR_CHECK(alpha > 0.0);

  // Zipf-like cumulative weights over a shuffled rank order, so that hub
  // nodes land at arbitrary ids (the sharder must not be able to exploit an
  // id-sorted degree profile that real datasets do not have).
  const std::vector<std::uint32_t> rank_of = prng.permutation(num_nodes);
  std::vector<double> cumulative(num_nodes);
  double total = 0.0;
  for (NodeId v = 0; v < num_nodes; ++v) {
    total += std::pow(static_cast<double>(rank_of[v]) + 1.0, -alpha);
    cumulative[v] = total;
  }

  auto sample_node = [&]() -> NodeId {
    const double r = prng.uniform() * total;
    const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), r);
    return static_cast<NodeId>(std::distance(cumulative.begin(), it));
  };

  std::unordered_set<Edge, EdgeHash> chosen;
  chosen.reserve(num_edges * 2);
  // Rejection loop with an escape hatch: if the weight profile is too
  // concentrated to yield enough distinct pairs quickly, fall back to
  // uniform pairs for the remainder (keeps |E| exact).
  std::size_t failed_attempts = 0;
  const std::size_t max_failures = 64 * num_edges + 1024;
  while (chosen.size() < num_edges) {
    NodeId src;
    NodeId dst;
    if (failed_attempts < max_failures) {
      src = sample_node();
      dst = sample_node();
    } else {
      src = static_cast<NodeId>(prng.uniform_u64(num_nodes));
      dst = static_cast<NodeId>(prng.uniform_u64(num_nodes));
    }
    if (src == dst || !chosen.insert(Edge{src, dst}).second) {
      ++failed_attempts;
      continue;
    }
  }
  std::vector<Edge> edges(chosen.begin(), chosen.end());
  std::sort(edges.begin(), edges.end());
  return Graph(num_nodes, std::move(edges));
}

Graph symmetrized(const Graph& g) {
  GraphBuilder builder(g.num_nodes());
  for (const Edge& e : g.edges()) {
    builder.add_undirected_edge(e.src, e.dst);
  }
  return builder.build();
}

Graph with_self_loops(const Graph& g) {
  std::vector<Edge> edges;
  edges.reserve(g.num_edges() + g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    // Out-neighbours are ascending: the loop goes before the first one >= v.
    bool placed = false;
    for (const NodeId u : g.out_neighbors(v)) {
      if (!placed && u >= v) {
        if (u != v) {
          edges.push_back(Edge{v, v});
        }
        placed = true;
      }
      edges.push_back(Edge{v, u});
    }
    if (!placed) {
      edges.push_back(Edge{v, v});
    }
  }
  return Graph(g.num_nodes(), std::move(edges));
}

}  // namespace gnnerator::graph
