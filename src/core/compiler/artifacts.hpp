#pragma once

#include <map>
#include <memory>
#include <mutex>

#include "graph/graph.hpp"
#include "shard/shard_grid.hpp"

namespace gnnerator::core::compiler {

/// Memo of the compile artifacts that depend on the dataset graph alone: the
/// self-loop aggregation graph and one ShardGrid per interval size n. Each is
/// built the first time a compile asks for it; later compiles of the same
/// graph share the object, so a sweep over a fixed set of graphs builds each
/// (graph, n) once instead of once per compile.
///
/// The memo holds weak references only: an artifact lives exactly as long as
/// a cached or in-flight plan holds it, so the plan cache's capacity bounds
/// the memo as well. Thread-safe; artifacts are built under the memo's mutex,
/// so concurrent compiles of one graph build each of them once.
///
/// The graph is held by reference and must outlive the memo.
class GraphArtifacts {
 public:
  explicit GraphArtifacts(const graph::Graph& graph) : graph_(graph) {}

  GraphArtifacts(const GraphArtifacts&) = delete;
  GraphArtifacts& operator=(const GraphArtifacts&) = delete;

  [[nodiscard]] const graph::Graph& graph() const { return graph_; }

  /// The graph with a self loop on every node (graph::with_self_loops).
  [[nodiscard]] std::shared_ptr<const graph::Graph> agg_graph();

  /// The shard grid over agg_graph() at `nodes_per_shard` nodes per interval.
  [[nodiscard]] std::shared_ptr<const shard::ShardGrid> grid(graph::NodeId nodes_per_shard);

 private:
  [[nodiscard]] std::shared_ptr<const graph::Graph> agg_graph_locked();

  const graph::Graph& graph_;
  std::mutex mutex_;
  std::weak_ptr<const graph::Graph> agg_graph_;
  std::map<graph::NodeId, std::weak_ptr<const shard::ShardGrid>> grids_;
};

}  // namespace gnnerator::core::compiler
