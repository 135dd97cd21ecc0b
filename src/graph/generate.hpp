#pragma once

#include <cstddef>

#include "graph/graph.hpp"
#include "util/prng.hpp"

namespace gnnerator::graph {

/// All generators are deterministic functions of the Prng state and produce
/// simple directed graphs (no duplicate edges; self loops only where noted).

/// G(n, m): exactly `num_edges` distinct directed edges chosen uniformly,
/// excluding self loops. Requires num_edges <= n*(n-1).
Graph erdos_renyi(NodeId num_nodes, std::size_t num_edges, util::Prng& prng);

/// Preferential-attachment (Barabási–Albert style): nodes arrive one at a
/// time and connect to `edges_per_node` existing nodes with probability
/// proportional to current degree. Produces a symmetric graph with a
/// power-law tail.
Graph preferential_attachment(NodeId num_nodes, std::size_t edges_per_node, util::Prng& prng);

/// R-MAT (recursive matrix) generator with partition probabilities
/// (a, b, c, d), a + b + c + d ~ 1. Produces `num_edges` distinct directed
/// edges over 2^scale nodes, skewed toward low ids. Self loops excluded.
Graph rmat(unsigned scale, std::size_t num_edges, double a, double b, double c, util::Prng& prng);

/// Degree-targeted power-law generator: endpoints are drawn from a Zipf-like
/// weight profile w_i ∝ rank_i^(-alpha) (ranks shuffled so high-degree nodes
/// are spread across the id space), until exactly `num_edges` distinct
/// non-self-loop directed edges exist. This is the generator behind the
/// synthetic Cora/Citeseer/Pubmed stand-ins: it matches |V| and |E| exactly
/// and yields the heavy-tailed degree profile of citation networks.
Graph power_law(NodeId num_nodes, std::size_t num_edges, double alpha, util::Prng& prng);

/// Symmetrises (adds reverse edges) — citation datasets are used as
/// undirected graphs by GCN/GraphSAGE.
Graph symmetrized(const Graph& g);

/// Adds (v, v) for every node that lacks one, in O(V + E): GCN-style
/// networks aggregate over N(u) ∪ u (paper Eq. 1/2), and the compiler shards
/// this augmented graph. The result carries no coefficient-degree override.
Graph with_self_loops(const Graph& g);

}  // namespace gnnerator::graph
