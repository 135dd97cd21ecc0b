#include "gengine/gpe.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/units.hpp"

namespace gnnerator::gengine {

std::vector<std::uint32_t> partition_edges_by_dst(std::span<const graph::Edge> edges,
                                                  std::uint32_t num_gpes) {
  GNNERATOR_CHECK(num_gpes >= 1);
  std::vector<std::uint32_t> counts;
  if (edges.empty()) {
    return counts;
  }
  // Verify destination-major ordering (cheap but catches misuse).
  for (std::size_t i = 1; i < edges.size(); ++i) {
    GNNERATOR_CHECK_MSG(edges[i - 1].dst <= edges[i].dst,
                        "partition_edges_by_dst requires dst-sorted edges");
  }

  const std::uint64_t target = util::ceil_div(edges.size(), num_gpes);
  std::uint32_t current = 0;
  std::size_t i = 0;
  while (i < edges.size()) {
    // Extent of this destination's group.
    std::size_t j = i;
    while (j < edges.size() && edges[j].dst == edges[i].dst) {
      ++j;
    }
    const auto group = static_cast<std::uint32_t>(j - i);
    // Close the current GPE once it has met the target and another GPE slot
    // remains; destination groups are never split across GPEs.
    if (current >= target && counts.size() + 1 < num_gpes) {
      counts.push_back(current);
      current = 0;
    }
    current += group;
    i = j;
  }
  if (current > 0) {
    counts.push_back(current);
  }
  GNNERATOR_CHECK(counts.size() <= num_gpes);
  return counts;
}

std::uint32_t max_gpe_edges(std::span<const graph::Edge> edges, std::uint32_t num_gpes) {
  const std::vector<std::uint32_t> counts = partition_edges_by_dst(edges, num_gpes);
  return counts.empty() ? 0 : *std::max_element(counts.begin(), counts.end());
}

std::uint64_t shard_compute_cycles(std::span<const graph::Edge> edges,
                                   const GpeGeometry& geometry, std::size_t block_dims) {
  return shard_compute_cycles(max_gpe_edges(edges, geometry.num_gpes), geometry, block_dims);
}

std::uint64_t shard_compute_cycles(std::uint32_t max_edges, const GpeGeometry& geometry,
                                   std::size_t block_dims) {
  GNNERATOR_CHECK(block_dims >= 1);
  if (max_edges == 0) {
    return 0;  // an empty shard
  }
  const std::uint64_t cycles_per_edge =
      std::max<std::uint64_t>(1, util::ceil_div(block_dims, geometry.simd_lanes));
  // +8: Edge Fetcher / Feature Fetcher / Apply / Reduce pipeline fill.
  return static_cast<std::uint64_t>(max_edges) * cycles_per_edge + 8;
}

}  // namespace gnnerator::gengine
