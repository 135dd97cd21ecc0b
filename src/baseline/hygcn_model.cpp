#include "baseline/hygcn_model.hpp"

#include <algorithm>

#include "graph/generate.hpp"
#include "shard/shard_grid.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace gnnerator::baseline {

namespace {

/// Aggregation pass over `dims`-wide features for the self-loop-augmented
/// graph, processed as destination blocks against source windows sized by
/// the input buffer.
struct AggPass {
  std::uint64_t dma_cycles = 0;
  std::uint64_t compute_cycles = 0;
};

AggPass aggregation_pass(const graph::Graph& agg_graph, std::size_t dims,
                         const HygcnConfig& cfg) {
  // Buffer split: half for the source window (double-buffered halves of
  // that again), a quarter for destination accumulators, the rest edges /
  // output. The window rows determine locality.
  const std::uint64_t feat_bytes = dims * sizeof(float);
  const std::uint64_t window_rows_budget = (cfg.buffer_bytes / 2) / 2;  // one window bank
  const auto window_rows = std::max<std::uint64_t>(
      1, window_rows_budget / std::max<std::uint64_t>(1, feat_bytes));
  const auto n = static_cast<graph::NodeId>(
      std::min<std::uint64_t>(window_rows, agg_graph.num_nodes()));

  // A shard grid over the augmented graph with interval n reproduces the
  // destination-block x source-window structure of HyGCN's sliding window.
  const shard::ShardGrid grid(agg_graph, n);
  const std::uint32_t S = grid.dim();

  AggPass pass;
  std::uint64_t dma_bytes = 0;
  for (std::uint32_t col = 0; col < S; ++col) {
    for (std::uint32_t row = 0; row < S; ++row) {
      const shard::ShardCoord coord{row, col};
      const auto edges = grid.shard_edges(coord);
      if (edges.empty()) {
        continue;
      }
      // Sparsity elimination: only rows with edges into this destination
      // block are fetched; without it the full window streams in.
      const std::uint64_t rows_fetched = cfg.sparsity_elimination
                                             ? grid.shard_sources(coord).size()
                                             : grid.interval_size(row);
      dma_bytes += rows_fetched * feat_bytes;
      dma_bytes += edges.size() * 2 * sizeof(graph::NodeId);
    }
    // Destination accumulators write back once per block.
    dma_bytes += static_cast<std::uint64_t>(grid.interval_size(col)) * feat_bytes;
  }
  pass.dma_cycles =
      static_cast<std::uint64_t>(static_cast<double>(dma_bytes) / cfg.dram_bytes_per_cycle);

  // Vertex-stationary compute: each destination vertex's edges spread over
  // all SIMD cores; the vertex must finish before the next starts, so each
  // vertex costs at least one round.
  const std::uint64_t lane_groups = util::ceil_div(dims, cfg.simd_lanes);
  std::uint64_t compute = 0;
  for (graph::NodeId v = 0; v < agg_graph.num_nodes(); ++v) {
    const std::uint64_t deg = agg_graph.in_degree(v);
    if (deg == 0) {
      continue;
    }
    compute += std::max<std::uint64_t>(1, util::ceil_div(deg * lane_groups, cfg.simd_cores));
  }
  pass.compute_cycles = compute;
  return pass;
}

}  // namespace

HygcnModel::HygcnModel(HygcnConfig config) : config_(std::move(config)) {
  GNNERATOR_CHECK(config_.simd_cores >= 1 && config_.simd_lanes >= 1);
  GNNERATOR_CHECK(config_.dram_bytes_per_cycle > 0);
}

HygcnLayerCycles HygcnModel::layer_cycles(const graph::Graph& graph,
                                          const gnn::LayerSpec& layer) const {
  const graph::Graph agg_graph = graph::with_self_loops(graph);

  const std::uint64_t v = graph.num_nodes();
  HygcnLayerCycles out;

  switch (layer.kind) {
    case gnn::LayerKind::kGcn: {
      const AggPass agg = aggregation_pass(agg_graph, layer.in_dim, config_);
      out.aggregation_dma = agg.dma_cycles;
      out.aggregation_compute = agg.compute_cycles;
      out.combination = dense::gemm_cycles(config_.array,
                                           dense::GemmShape{v, layer.in_dim, layer.out_dim});
      // Aggregation produces, combination consumes: pipelined overlap.
      out.total = std::max({agg.dma_cycles, agg.compute_cycles, out.combination});
      break;
    }
    case gnn::LayerKind::kSageMean: {
      const AggPass agg = aggregation_pass(agg_graph, layer.in_dim, config_);
      out.aggregation_dma = agg.dma_cycles;
      out.aggregation_compute = agg.compute_cycles;
      out.combination = dense::gemm_cycles(
          config_.array, dense::GemmShape{v, 2 * layer.in_dim, layer.out_dim});
      out.total = std::max({agg.dma_cycles, agg.compute_cycles, out.combination});
      break;
    }
    case gnn::LayerKind::kSagePool: {
      // Dense-first: HyGCN's fixed aggregation->combination pipeline cannot
      // overlap these stages (paper §III-C / §VII): pool GEMM, then max
      // aggregation, then the update GEMM, serialised.
      // The pool transform matches GNNerator's lowering (D_in -> D_out).
      const std::uint64_t pool = dense::gemm_cycles(
          config_.array, dense::GemmShape{v, layer.in_dim, layer.out_dim});
      const AggPass agg = aggregation_pass(agg_graph, layer.out_dim, config_);
      const std::uint64_t update = dense::gemm_cycles(
          config_.array,
          dense::GemmShape{v, layer.out_dim + layer.in_dim, layer.out_dim});
      out.aggregation_dma = agg.dma_cycles;
      out.aggregation_compute = agg.compute_cycles;
      out.combination = pool + update;
      // Pool GEMM input streams h from DRAM: bandwidth-bound floor.
      const std::uint64_t pool_dma = static_cast<std::uint64_t>(
          static_cast<double>(v * layer.in_dim * sizeof(float)) /
          config_.dram_bytes_per_cycle);
      out.total = std::max(pool, pool_dma) + std::max(agg.dma_cycles, agg.compute_cycles) +
                  std::max(update, pool_dma);
      break;
    }
  }
  return out;
}

std::uint64_t HygcnModel::simulate_cycles(const graph::Graph& graph,
                                          const gnn::ModelSpec& model) const {
  std::uint64_t total = 0;
  for (const gnn::LayerSpec& layer : model.layers) {
    total += layer_cycles(graph, layer).total;
  }
  return total;
}

}  // namespace gnnerator::baseline
