#include "shard/shard_grid.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/units.hpp"

namespace gnnerator::shard {

ShardGrid::ShardGrid(const graph::Graph& graph, NodeId nodes_per_shard)
    : num_nodes_(graph.num_nodes()), nodes_per_shard_(nodes_per_shard) {
  GNNERATOR_CHECK(nodes_per_shard_ > 0);
  dim_ = static_cast<std::uint32_t>(util::ceil_div(num_nodes_, nodes_per_shard_));
  GNNERATOR_CHECK(dim_ > 0);

  const std::size_t num_shards = static_cast<std::size_t>(dim_) * dim_;
  const auto interval_of = [&](NodeId v) -> std::size_t { return v / nodes_per_shard_; };

  // Every per-shard array is filled by one stable counting pass in an order
  // that leaves each shard sorted, so no comparison sort runs. Counts go to
  // offsets[s + 2]; after the prefix sum offsets[s + 1] is shard s's start,
  // and placing at offsets[s + 1]++ turns it into shard s's end, leaving
  // offsets[0..S^2] as the final table without a separate cursor array.
  const auto prefix_sum = [](std::vector<std::size_t>& offsets) {
    for (std::size_t i = 2; i < offsets.size(); ++i) {
      offsets[i] += offsets[i - 1];
    }
  };

  // Visits the CSR as (source, shard, whether the source is new to that
  // shard). A source's out-neighbours ascend, and so do their columns: the
  // source is new to a shard exactly when its previous neighbour fell in
  // another shard.
  const auto walk_csr = [&](auto&& visit) {
    for (NodeId u = 0; u < num_nodes_; ++u) {
      const std::size_t row_base = interval_of(u) * dim_;
      std::size_t prev_shard = num_shards;
      for (const NodeId v : graph.out_neighbors(u)) {
        const std::size_t s = row_base + interval_of(v);
        visit(u, s, s != prev_shard);
        prev_shard = s;
      }
    }
  };

  offsets_.assign(num_shards + 2, 0);
  source_offsets_.assign(num_shards + 2, 0);
  walk_csr([&](NodeId /*src*/, std::size_t s, bool new_source) {
    ++offsets_[s + 2];
    if (new_source) {
      ++source_offsets_[s + 2];
    }
  });
  prefix_sum(offsets_);
  prefix_sum(source_offsets_);

  // Place edges by walking the CSC: destinations ascending, each one's
  // sources ascending, so every shard receives its edges in (dst, src)
  // order.
  edges_.resize(graph.num_edges());
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const std::size_t col = interval_of(v);
    for (const NodeId u : graph.in_neighbors(v)) {
      edges_[offsets_[interval_of(u) * dim_ + col + 1]++] = Edge{u, v};
    }
  }
  offsets_.pop_back();

  // The CSR walk visits sources in ascending order, so every shard's
  // distinct sources come out sorted.
  sources_.resize(source_offsets_.back());
  walk_csr([&](NodeId u, std::size_t s, bool new_source) {
    if (new_source) {
      sources_[source_offsets_[s + 1]++] = u;
    }
  });
  source_offsets_.pop_back();
}

NodeId ShardGrid::interval_begin(std::uint32_t idx) const {
  GNNERATOR_CHECK(idx < dim_);
  return idx * nodes_per_shard_;
}

NodeId ShardGrid::interval_end(std::uint32_t idx) const {
  GNNERATOR_CHECK(idx < dim_);
  return std::min<NodeId>(num_nodes_, (idx + 1) * nodes_per_shard_);
}

NodeId ShardGrid::interval_size(std::uint32_t idx) const {
  return interval_end(idx) - interval_begin(idx);
}

std::size_t ShardGrid::shard_index(ShardCoord c) const {
  GNNERATOR_CHECK_MSG(c.row < dim_ && c.col < dim_,
                      "shard (" << c.row << "," << c.col << ") out of grid dim " << dim_);
  return static_cast<std::size_t>(c.row) * dim_ + c.col;
}

std::span<const Edge> ShardGrid::shard_edges(ShardCoord c) const {
  const std::size_t s = shard_index(c);
  return {edges_.data() + offsets_[s], offsets_[s + 1] - offsets_[s]};
}

std::span<const NodeId> ShardGrid::shard_sources(ShardCoord c) const {
  const std::size_t s = shard_index(c);
  return {sources_.data() + source_offsets_[s], source_offsets_[s + 1] - source_offsets_[s]};
}

std::size_t ShardGrid::num_nonempty_shards() const {
  std::size_t count = 0;
  for (std::size_t s = 0; s + 1 < offsets_.size(); ++s) {
    if (offsets_[s + 1] > offsets_[s]) {
      ++count;
    }
  }
  return count;
}

}  // namespace gnnerator::shard
