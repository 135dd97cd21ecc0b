#include "shard/sizing.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/units.hpp"

namespace gnnerator::shard {

ShardSizing choose_shard_size(std::uint64_t scratch_bytes, std::size_t block_dims,
                              graph::NodeId num_nodes, const SizingPolicy& policy) {
  GNNERATOR_CHECK(scratch_bytes > 0);
  GNNERATOR_CHECK(block_dims > 0);
  GNNERATOR_CHECK(num_nodes > 0);

  const std::uint64_t src_copies = policy.double_buffer_sources ? 2 : 1;
  const std::uint64_t dst_copies = policy.double_buffer_dests ? 2 : 1;
  const std::uint64_t per_node_bytes =
      static_cast<std::uint64_t>(block_dims) * policy.bytes_per_value * (src_copies + dst_copies);

  GNNERATOR_CHECK_MSG(scratch_bytes > policy.edge_buffer_bytes,
                      "scratchpad " << scratch_bytes << " B cannot even hold the edge buffer");
  const std::uint64_t feature_budget = scratch_bytes - policy.edge_buffer_bytes;

  std::uint64_t n = feature_budget / per_node_bytes;
  GNNERATOR_CHECK_MSG(n >= 1, "block of " << block_dims
                                          << " dims does not fit a single node in "
                                          << util::format_bytes(scratch_bytes));
  n = std::min<std::uint64_t>(n, num_nodes);

  ShardSizing sizing;
  sizing.nodes_per_shard = static_cast<graph::NodeId>(n);
  sizing.grid_dim = static_cast<std::uint32_t>(util::ceil_div(num_nodes, n));
  sizing.src_buffer_bytes = n * block_dims * policy.bytes_per_value;
  sizing.dst_buffer_bytes = n * block_dims * policy.bytes_per_value;
  sizing.edge_buffer_bytes = policy.edge_buffer_bytes;
  sizing.total_bytes = sizing.src_buffer_bytes * src_copies +
                       sizing.dst_buffer_bytes * dst_copies + policy.edge_buffer_bytes;
  GNNERATOR_CHECK(sizing.total_bytes <= scratch_bytes);
  return sizing;
}

}  // namespace gnnerator::shard
