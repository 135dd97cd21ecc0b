#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/datasets.hpp"
#include "graph/graph.hpp"
#include "util/prng.hpp"

namespace gnnerator::graph {

/// Per-hop neighbor fanout of a k-hop frontier sample (GraphSAGE-style).
/// per_hop[h] bounds how many in-neighbors of each frontier vertex hop h
/// expands; 0 means "keep all" (no truncation at that hop).
struct FanoutSpec {
  std::vector<std::uint32_t> per_hop;

  [[nodiscard]] std::size_t hops() const { return per_hop.size(); }
  /// Canonical spelling ("10,5") — the grammar parse_fanout accepts and the
  /// spelling compatibility keys embed, so "2x10" and "10,10" coalesce.
  [[nodiscard]] std::string canonical() const;
};

/// Parses a fanout spec. Grammar (via util::parse_count_list): elements are
/// comma- or slash-separated (the slash spelling "10/5" survives inside a
/// comma-delimited CSV cell); each element is a bare per-hop fanout ("10")
/// or `<hops>x<fanout>` repeating one fanout over several hops ("2x10" ==
/// "10,10"). A fanout of 0 keeps every neighbor at that hop. Throws
/// CheckError on an empty or malformed spec.
[[nodiscard]] FanoutSpec parse_fanout(std::string_view spec);

/// A compact k-hop sampled subgraph: remapped structure over the sampled
/// vertex set, the vertex-id mapping back to the parent graph, the parent
/// in-degrees (coefficient override, so truncated structure aggregates with
/// the parent's GCN-norm/mean coefficients), and the seed vertices in
/// subgraph ids. `fingerprint` is a stable content hash — PlanCache keys
/// built from it distinguish sampled shapes from each other and from the
/// parent graph.
struct SampledSubgraph {
  Graph graph;
  /// vertices[new_id] == parent id; ascending (the remap is monotone, so
  /// in-neighbor order — and thus float summation order — matches the
  /// parent's).
  std::vector<NodeId> vertices;
  /// Parent in-degree per subgraph vertex (== graph.coeff_in_degrees()).
  std::vector<std::uint32_t> base_in_degree;
  /// Seed vertices in subgraph ids (seed mask: membership == seed).
  std::vector<NodeId> seeds;
  std::uint64_t fingerprint_value = 0;
  /// "s" + hex(fingerprint_value): the dataset-key component serve-layer
  /// compatibility keys embed.
  std::string fingerprint;
};

/// Deterministic k-hop in-neighborhood sampling from `seeds`. Hop h expands
/// every vertex on the current frontier by at most fanout.per_hop[h]
/// in-neighbors (0 = all), drawn without replacement from `prng`; a vertex
/// is expanded the first time it is discovered only. The sampled vertex set
/// is the union over all hops; the subgraph keeps exactly the parent edges
/// between kept vertices that a sample step selected. Identical
/// (graph, seeds, fanout, prng state) always produce the identical
/// subgraph and fingerprint.
[[nodiscard]] SampledSubgraph sample_frontier(const Graph& graph,
                                              const std::vector<NodeId>& seeds,
                                              const FanoutSpec& fanout, util::Prng& prng);

/// HP-GNN-style mixed-batch fusion: concatenates distinct frontiers into
/// one block-diagonal subgraph (vertex ids offset per block, no cross-block
/// edges), so one compiled plan and one device pass covers every request in
/// the batch. Per-block vertex order is preserved, which keeps each block's
/// outputs bitwise identical to running it alone. The fused fingerprint is
/// a hash over the component fingerprints in order.
[[nodiscard]] SampledSubgraph fuse_subgraphs(
    const std::vector<const SampledSubgraph*>& parts);

/// Materializes the dataset a sampled subgraph executes as: dims from
/// `base`, features gathered per sampled vertex when `base` carries them,
/// name = base name + "#" + fingerprint (distinct per sampled shape).
[[nodiscard]] Dataset subgraph_dataset(const Dataset& base, const SampledSubgraph& sub);

/// Samples `frontiers` single-seed frontiers of `base` at `fanout`, each
/// seed drawn uniformly from its vertices, all from `prng`, and fuses them
/// into one dataset: the shape one sampled serving dispatch of that many
/// distinct queries simulates.
[[nodiscard]] Dataset sample_fused_dataset(const Dataset& base, std::size_t frontiers,
                                           const FanoutSpec& fanout, util::Prng& prng);

}  // namespace gnnerator::graph
