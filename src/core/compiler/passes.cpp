#include "core/compiler/passes.hpp"

#include <algorithm>
#include <sstream>

#include "shard/cost_model.hpp"
#include "shard/sizing.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace gnnerator::core::compiler {

std::size_t default_block(const StageGraph& ir, std::size_t dims) {
  if (!ir.options.feature_blocking) {
    return dims;
  }
  const std::size_t base =
      ir.options.block_size != 0 ? ir.options.block_size : ir.config.dense.array.cols;
  return std::min(base, dims);
}

bool consumer_psums_fit(const StageGraph& ir, std::size_t out_dim) {
  const std::uint64_t footprint = static_cast<std::uint64_t>(ir.dataset_graph->num_nodes()) *
                                  out_dim * kBytesPerValue;
  return footprint <= ir.config.dense.output_buffer_bytes;
}

bool edge_list_cacheable(const StageGraph& ir) {
  return ir.agg_edge_count * kEdgeRecordBytes <= ir.config.graph.edge_buffer_bytes / 2;
}

std::uint32_t consumer_of(const StageGraph& ir, std::uint32_t node) {
  GNNERATOR_CHECK_MSG(node + 1 < ir.nodes.size() && !ir.nodes[node + 1].is_aggregate() &&
                          ir.nodes[node + 1].layer == ir.nodes[node].layer,
                      "aggregation stage must feed a dense stage");
  return node + 1;
}

// ===========================================================================
// build-stage-graph
// ===========================================================================

void build_stage_graph_pass(StageGraph& ir) {
  gnn::validate_model(ir.model);
  GNNERATOR_CHECK_MSG(ir.model.input_dim() > 0, "model input dim must be positive");
  GNNERATOR_CHECK(ir.dataset_graph != nullptr);
  ir.config.validate();

  const graph::Graph& g = *ir.dataset_graph;
  ir.agg_edge_count = g.num_edges() + (g.num_nodes() - g.num_self_loops());

  if (!ir.analysis_only) {
    // Aggregation graph: dataset graph + self loops (Eq. 1/2 aggregate over
    // N(u) ∪ u). Edge coefficients use the original degrees.
    GNNERATOR_CHECK(ir.artifacts != nullptr && &ir.artifacts->graph() == &g);
    ir.agg_graph = ir.artifacts->agg_graph();
    ir.agg_edge_count = ir.agg_graph->num_edges();
    ir.base_in_degree.resize(g.num_nodes());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      // coeff_in_degree == in_degree unless the graph carries a sampled
      // subgraph's degree override (graph::sample_frontier).
      ir.base_in_degree[v] = static_cast<std::uint32_t>(g.coeff_in_degree(v));
    }
  }

  ir.nodes.clear();
  ir.edges.clear();
  ir.layer_nodes.assign(ir.model.layers.size(), {});
  for (std::uint32_t l = 0; l < ir.model.layers.size(); ++l) {
    const std::vector<gnn::StageSpec> stages = gnn::layer_stages(ir.model.layers[l]);
    for (std::uint32_t s = 0; s < stages.size(); ++s) {
      StageNode node;
      node.layer = l;
      node.stage_index = s;
      node.spec = stages[s];
      const auto idx = static_cast<std::uint32_t>(ir.nodes.size());
      if (node.is_aggregate()) {
        node.agg.layer = l;
        node.agg.stage_index = s;
        node.agg.op = stages[s].op;
        node.agg.dims = stages[s].dims;
        node.agg.input = stages[s].input == gnn::StageSpec::Input::kLayerInput
                             ? TensorRef{l, -1}
                             : TensorRef{l, static_cast<std::int32_t>(s) - 1};
        node.agg.output = TensorRef{l, static_cast<std::int32_t>(s)};
      }
      if (s > 0) {
        // Intra-layer dataflow; pipelined vs spilled is refined by the
        // residency pass once hand-off modes are known.
        ir.edges.push_back(StageEdge{idx - 1, idx, StageEdge::Kind::kPipelined});
      } else if (l > 0) {
        ir.edges.push_back(
            StageEdge{ir.layer_nodes[l - 1].back(), idx, StageEdge::Kind::kLayerChain});
      }
      ir.layer_nodes[l].push_back(idx);
      ir.nodes.push_back(std::move(node));
    }
  }
  ir.mark(kStagesBuilt);
}

// ===========================================================================
// feature-blocking
// ===========================================================================

void feature_blocking_pass(StageGraph& ir) {
  for (StageNode& node : ir.nodes) {
    if (!node.is_aggregate()) {
      continue;
    }
    node.agg.block = default_block(ir, node.agg.dims);
    node.agg.num_blocks = util::ceil_div(node.agg.dims, node.agg.block);
  }
  ir.mark(kBlocksChosen);
}

// ===========================================================================
// shard-sizing
// ===========================================================================

void shard_sizing_pass(StageGraph& ir) {
  const graph::NodeId num_nodes = ir.dataset_graph->num_nodes();
  for (StageNode& node : ir.nodes) {
    if (!node.is_aggregate()) {
      continue;
    }
    shard::SizingPolicy policy;
    policy.edge_buffer_bytes = 0;  // edge buffer is provisioned separately
    node.agg.sizing = shard::choose_shard_size(ir.config.graph.feature_scratch_bytes,
                                               node.agg.block, num_nodes, policy);
    if (!ir.analysis_only) {
      // Grids are read-only once built, so stages (and plans) with the same
      // interval size share one.
      node.agg.grid = ir.artifacts->grid(node.agg.sizing.nodes_per_shard);
    }
  }
  ir.mark(kShardsSized);
}

// ===========================================================================
// traversal-selection
// ===========================================================================

void traversal_selection_pass(StageGraph& ir) {
  for (StageNode& node : ir.nodes) {
    if (!node.is_aggregate()) {
      continue;
    }
    if (ir.options.traversal.has_value()) {
      node.agg.traversal = *ir.options.traversal;  // global override
    } else if (!node.tuned) {
      // Table I cost model at the stage's resolved grid dimension.
      node.agg.traversal =
          shard::choose_traversal(node.agg.sizing.grid_dim, /*input_residency=*/1.0);
    }
    // Autotuned stages keep the traversal the joint (block, traversal)
    // search selected.
  }
  ir.mark(kTraversalsChosen);
}

// ===========================================================================
// residency-handoff
// ===========================================================================

void residency_handoff_pass(StageGraph& ir) {
  const auto w_slice_resident = [&](std::uint64_t k_rows, std::uint64_t n_cols) {
    return k_rows * n_cols * kBytesPerValue <= ir.config.dense.weight_bank_bytes();
  };
  const bool edges_cached = edge_list_cacheable(ir);

  for (std::uint32_t i = 0; i < ir.nodes.size(); ++i) {
    StageNode& node = ir.nodes[i];
    if (node.is_aggregate()) {
      node.agg.edges_cached = edges_cached;
      // Hand-off mode: the consuming dense stage keeps psums resident iff
      // its full output footprint fits the dense output buffer.
      const std::uint32_t consumer = consumer_of(ir, i);
      node.agg.pipelined_consume = consumer_psums_fit(ir, ir.nodes[consumer].spec.out_dim);
      // Refine the dataflow edge to the consumer.
      for (StageEdge& edge : ir.edges) {
        if (edge.from == i && edge.to == consumer) {
          edge.kind = node.agg.pipelined_consume ? StageEdge::Kind::kPipelined
                                                 : StageEdge::Kind::kSpilled;
        }
      }
      continue;
    }

    DenseDecisions& d = node.dense;
    const bool produces_for_agg =
        i + 1 < ir.nodes.size() && ir.nodes[i + 1].is_aggregate() &&
        ir.nodes[i + 1].layer == node.layer;
    const bool consumes_agg = i > 0 && ir.nodes[i - 1].is_aggregate();
    if (produces_for_agg) {
      d.role = DenseRole::kProducer;
      d.agg_node = i + 1;
      continue;
    }
    GNNERATOR_CHECK_MSG(consumes_agg,
                        "standalone dense stages are not part of the Table III networks");
    d.role = DenseRole::kConsumer;
    d.agg_node = i - 1;
    const AggStagePlan& aplan = ir.nodes[d.agg_node].agg;
    d.psums_resident = aplan.pipelined_consume;
    d.h_dims = node.spec.concat_layer_input ? node.spec.in_dim - aplan.dims : 0;
    const std::uint64_t n_total = node.spec.out_dim;
    const std::size_t tail =
        aplan.dims - (aplan.num_blocks - 1) * aplan.block;  // last block's width
    d.w_resident_full_block = w_slice_resident(aplan.block, n_total);
    d.w_resident_tail_block = w_slice_resident(tail, n_total);
    d.w_resident_h = d.h_dims > 0 && w_slice_resident(d.h_dims, n_total);
  }
  ir.mark(kResidencyAssigned);
}

// ===========================================================================
// token-threading
// ===========================================================================

void token_threading_pass(StageGraph& ir) {
  ir.token_names.clear();
  ir.col_tokens.assign(ir.nodes.size(), {});
  ir.ivl_tokens.assign(ir.nodes.size(), {});
  ir.layer_tokens.assign(ir.model.layers.size(), sim::kNoToken);

  const auto create = [&](std::string name) {
    const auto id = static_cast<sim::TokenId>(ir.token_names.size());
    ir.token_names.push_back(std::move(name));
    return id;
  };

  // Registration order matches the pre-pass-pipeline compiler exactly: per
  // layer, each aggregation stage's column tokens then (dense-first only)
  // interval tokens, then the layer's completion token.
  for (std::uint32_t l = 0; l < ir.model.layers.size(); ++l) {
    for (const std::uint32_t i : ir.layer_nodes[l]) {
      const StageNode& node = ir.nodes[i];
      if (!node.is_aggregate()) {
        continue;
      }
      const std::uint32_t s = node.stage_index;
      const std::uint32_t S = node.agg.sizing.grid_dim;
      auto& cols = ir.col_tokens[i];
      cols.resize(node.agg.num_blocks);
      for (std::uint32_t b = 0; b < node.agg.num_blocks; ++b) {
        cols[b].resize(S);
        for (std::uint32_t c = 0; c < S; ++c) {
          std::ostringstream os;
          os << "L" << l << ".S" << s << ".b" << b << ".col" << c;
          cols[b][c] = create(os.str());
        }
      }
      const bool dense_first = s > 0 && ir.nodes[i - 1].spec.kind == gnn::StageSpec::Kind::kDense;
      if (dense_first) {
        auto& ivls = ir.ivl_tokens[i];
        ivls.resize(node.agg.num_blocks);
        for (std::uint32_t b = 0; b < node.agg.num_blocks; ++b) {
          ivls[b].resize(S);
          for (std::uint32_t r = 0; r < S; ++r) {
            std::ostringstream os;
            os << "L" << l << ".S" << s << ".b" << b << ".ivl" << r;
            ivls[b][r] = create(os.str());
          }
        }
      }
    }
    ir.layer_tokens[l] = create("L" + std::to_string(l) + ".done");
  }
  ir.mark(kTokensThreaded);
}

// ===========================================================================
// validation
// ===========================================================================

void validate_stage_graph(const StageGraph& ir) {
  if (!ir.done(kStagesBuilt)) {
    return;
  }
  GNNERATOR_CHECK_MSG(!ir.nodes.empty(), "stage graph has no stages");
  GNNERATOR_CHECK(ir.layer_nodes.size() == ir.model.layers.size());
  for (std::uint32_t i = 0; i < ir.nodes.size(); ++i) {
    const StageNode& node = ir.nodes[i];
    if (node.is_aggregate()) {
      GNNERATOR_CHECK_MSG(node.agg.dims > 0, "aggregation stage with zero dims");
      GNNERATOR_CHECK_MSG(i + 1 < ir.nodes.size() && !ir.nodes[i + 1].is_aggregate() &&
                              ir.nodes[i + 1].layer == node.layer,
                          "aggregation stage must feed a dense stage");
    }
  }
  for (const StageEdge& edge : ir.edges) {
    GNNERATOR_CHECK(edge.from < ir.nodes.size() && edge.to < ir.nodes.size());
    GNNERATOR_CHECK_MSG(edge.from < edge.to, "stage edge against execution order");
  }

  for (const StageNode& node : ir.nodes) {
    if (!node.is_aggregate()) {
      continue;
    }
    const AggStagePlan& plan = node.agg;
    if (ir.done(kBlocksChosen)) {
      GNNERATOR_CHECK_MSG(plan.block >= 1 && plan.block <= plan.dims,
                          "block " << plan.block << " outside [1, " << plan.dims << "]");
      GNNERATOR_CHECK(plan.num_blocks == util::ceil_div(plan.dims, plan.block));
    }
    if (ir.done(kShardsSized)) {
      const auto v = ir.dataset_graph->num_nodes();
      GNNERATOR_CHECK(plan.sizing.nodes_per_shard >= 1);
      GNNERATOR_CHECK(plan.sizing.grid_dim ==
                      util::ceil_div(v, plan.sizing.nodes_per_shard));
      GNNERATOR_CHECK_MSG(plan.sizing.total_bytes <= ir.config.graph.feature_scratch_bytes,
                          "shard working set exceeds the feature scratchpad");
      if (!ir.analysis_only) {
        GNNERATOR_CHECK_MSG(plan.grid != nullptr, "shard grid not materialised");
        GNNERATOR_CHECK(plan.grid->dim() == plan.sizing.grid_dim);
      }
    }
  }

  if (ir.done(kResidencyAssigned)) {
    for (const StageNode& node : ir.nodes) {
      if (node.is_aggregate()) {
        continue;
      }
      const DenseDecisions& d = node.dense;
      GNNERATOR_CHECK(d.agg_node < ir.nodes.size() && ir.nodes[d.agg_node].is_aggregate());
      if (d.role == DenseRole::kConsumer) {
        GNNERATOR_CHECK_MSG(d.psums_resident == ir.nodes[d.agg_node].agg.pipelined_consume,
                            "consumer psum residency disagrees with the hand-off mode");
        GNNERATOR_CHECK(d.h_dims <= node.spec.in_dim);
      }
    }
  }

  if (ir.done(kTokensThreaded)) {
    GNNERATOR_CHECK(ir.col_tokens.size() == ir.nodes.size());
    GNNERATOR_CHECK(ir.layer_tokens.size() == ir.model.layers.size());
    for (std::uint32_t i = 0; i < ir.nodes.size(); ++i) {
      if (!ir.nodes[i].is_aggregate()) {
        continue;
      }
      GNNERATOR_CHECK_MSG(ir.col_tokens[i].size() == ir.nodes[i].agg.num_blocks,
                          "column token table mis-sized");
    }
    for (const sim::TokenId t : ir.layer_tokens) {
      GNNERATOR_CHECK(t != sim::kNoToken && t < ir.token_names.size());
    }
  }

  if (ir.done(kProgramsEmitted)) {
    const LoweredModel& lw = ir.lowered;
    // Work conservation: every dense MAC and every (edge x block) visit the
    // model implies must appear in the programs exactly once.
    std::uint64_t expected_macs = 0;
    for (const auto& layer : ir.model.layers) {
      for (const auto& stage : gnn::layer_stages(layer)) {
        if (stage.kind == gnn::StageSpec::Kind::kDense) {
          expected_macs += static_cast<std::uint64_t>(ir.dataset_graph->num_nodes()) *
                           stage.in_dim * stage.out_dim;
        }
      }
    }
    GNNERATOR_CHECK_MSG(lw.total_macs == expected_macs, "emitted MACs diverge from the model");
    std::uint64_t expected_visits = 0;
    for (const StageNode& node : ir.nodes) {
      if (node.is_aggregate()) {
        expected_visits += ir.agg_edge_count * node.agg.num_blocks;
      }
    }
    GNNERATOR_CHECK_MSG(lw.total_edge_visits == expected_visits,
                        "emitted edge visits diverge from the blocking plan");
    std::uint64_t traffic = 0;
    for (const GemmWork& op : lw.dense_program) {
      traffic += op.a_dma_bytes + op.w_dma_bytes + op.psum_read_bytes + op.out_write_bytes;
    }
    for (const AggWork& task : lw.graph_program) {
      traffic += task.edge_dma_bytes + task.src_dma_bytes + task.dst_load_bytes +
                 task.dst_write_bytes;
    }
    GNNERATOR_CHECK_MSG(lw.predicted_dram_bytes == traffic,
                        "predicted DRAM traffic diverges from the program sums");
  }
}

}  // namespace gnnerator::core::compiler
