#include "core/compiler/artifacts.hpp"

#include "graph/generate.hpp"

namespace gnnerator::core::compiler {

std::shared_ptr<const graph::Graph> GraphArtifacts::agg_graph() {
  std::lock_guard<std::mutex> lock(mutex_);
  return agg_graph_locked();
}

std::shared_ptr<const graph::Graph> GraphArtifacts::agg_graph_locked() {
  std::shared_ptr<const graph::Graph> agg = agg_graph_.lock();
  if (agg == nullptr) {
    agg = std::make_shared<const graph::Graph>(graph::with_self_loops(graph_));
    agg_graph_ = agg;
  }
  return agg;
}

std::shared_ptr<const shard::ShardGrid> GraphArtifacts::grid(graph::NodeId nodes_per_shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Entries whose grid no plan holds any more go first, so the map never
  // outgrows the grids alive.
  std::erase_if(grids_, [](const auto& entry) { return entry.second.expired(); });
  std::weak_ptr<const shard::ShardGrid>& slot = grids_[nodes_per_shard];
  std::shared_ptr<const shard::ShardGrid> grid = slot.lock();
  if (grid == nullptr) {
    grid = std::make_shared<const shard::ShardGrid>(*agg_graph_locked(), nodes_per_shard);
    slot = grid;
  }
  return grid;
}

}  // namespace gnnerator::core::compiler
