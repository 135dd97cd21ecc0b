#include <algorithm>
#include <cmath>
#include <vector>

#include "core/compiler/autotune.hpp"
#include "core/compiler/passes.hpp"
#include "dense/systolic.hpp"
#include "shard/cost_model.hpp"
#include "shard/sizing.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace gnnerator::core::compiler {

namespace {

// The deviation margin lives in autotune.hpp (kAutotuneDeviationMargin):
// the analytic model captures the first-order effects (DRAM traffic scaling
// with the grid dimension, dense array k-tile utilisation, producer
// re-streaming, pipeline tails) but not cycle-level contention, so
// near-ties stay on the well-tested default dataflow.

/// Dense Engine cycles for one GEMM series of `rows x k x n`, split into
/// `chunks` equal row chunks (operand-residency chunking): the stream work
/// is rows-proportional either way, but every extra chunk re-pays the
/// per-tile fill/drain (and weight preload) overhead.
double series_cycles(const dense::SystolicConfig& array, std::uint64_t rows, std::uint64_t k,
                     std::uint64_t n, std::uint64_t chunks) {
  if (rows == 0 || k == 0 || n == 0) {
    return 0.0;
  }
  chunks = std::max<std::uint64_t>(1, std::min(chunks, rows));
  const std::uint64_t chunk_rows = util::ceil_div(rows, chunks);
  const dense::GemmShape shape{chunk_rows, k, n};
  return static_cast<double>(chunks) * static_cast<double>(dense::gemm_cycles(array, shape));
}

/// Row-chunk count forced by streaming A from DRAM through the input bank
/// (mirrors the emit pass's operand-residency chunking).
std::uint64_t dram_row_chunks(const dense::DenseEngineConfig& cfg, std::uint64_t rows,
                              std::uint64_t k) {
  const bool ws = cfg.array.dataflow == dense::SystolicDataflow::kWeightStationary;
  const std::uint64_t k_chunk =
      ws ? std::min<std::uint64_t>(k, cfg.array.rows) : std::min<std::uint64_t>(k, 4096);
  const std::uint64_t m_chunk =
      std::max<std::uint64_t>(1, cfg.input_bank_bytes() / (k_chunk * kBytesPerValue));
  return util::ceil_div(rows, m_chunk);
}


}  // namespace

CandidateCost evaluate_stage_candidate(const StageGraph& ir, const StageShape& st,
                                       std::size_t block, shard::Traversal traversal) {

  CandidateCost cand;
  cand.block = block;
  cand.traversal = traversal;

  shard::ShardSizing sizing;
  try {
    shard::SizingPolicy policy;
    policy.edge_buffer_bytes = 0;
    sizing = shard::choose_shard_size(ir.config.graph.feature_scratch_bytes, block,
                                      static_cast<graph::NodeId>(st.num_nodes), policy);
  } catch (const util::CheckError&) {
    return cand;  // block does not fit a single node on-chip: infeasible
  }
  cand.feasible = true;

  const std::uint32_t S = sizing.grid_dim;
  const std::uint64_t n = sizing.nodes_per_shard;
  const std::uint64_t nb = util::ceil_div(st.dims, block);
  const std::size_t tail_width = st.dims - (nb - 1) * block;
  const double bw = ir.config.dram.bytes_per_cycle;
  const auto& dense_cfg = ir.config.dense;
  const auto& array = dense_cfg.array;

  // ---- Off-chip traffic (bytes) -------------------------------------------
  // Feature movement per Table I, in interval units of n x B x 4 bytes,
  // weighted by what actually hits DRAM under the hand-off mode.
  const shard::ShardCostBreakdown units =
      shard::shard_cost_breakdown(S, /*input_residency=*/1.0, traversal);
  const double unit_bytes = static_cast<double>(n) * static_cast<double>(block) *
                            static_cast<double>(kBytesPerValue);
  const double final_write_weight = st.pipelined ? 0.0 : 1.0;
  double bytes = units.dram_units(/*partial_write_weight=*/1.0, final_write_weight) *
                 unit_bytes * static_cast<double>(nb);
  // Edge list: fetched once, then re-processed on-chip when cacheable.
  bytes += static_cast<double>(st.agg_edges * kEdgeRecordBytes) *
           (st.edges_cached ? 1.0 : static_cast<double>(nb));
  const double feature_matrix_bytes =
      static_cast<double>(st.num_nodes) * static_cast<double>(st.dims) * kBytesPerValue;
  if (!st.pipelined) {
    // Deferred hand-off: the consumer re-reads the spilled z̄ from DRAM.
    bytes += feature_matrix_bytes;
  }
  // Consumer-side streams invariant in B but part of the stage's bandwidth
  // demand: the concat h-part and the output write-back.
  bytes += static_cast<double>(st.num_nodes) * static_cast<double>(st.h_dims) * kBytesPerValue;
  bytes += static_cast<double>(st.num_nodes) * static_cast<double>(st.consumer_out) *
           kBytesPerValue;
  // Consumer weight slices: one load per block when the slice stays banked,
  // one per (block, column) otherwise.
  const auto w_loads = [&](std::size_t width) {
    const bool resident = width * st.consumer_out * kBytesPerValue <=
                          dense_cfg.weight_bank_bytes();
    return (resident ? 1.0 : static_cast<double>(S)) * static_cast<double>(width) *
           static_cast<double>(st.consumer_out) * kBytesPerValue;
  };
  bytes += w_loads(block) * static_cast<double>(nb - 1) + w_loads(tail_width);
  if (st.producer_in > 0) {
    // Dense-first producer re-streams its full input per emitted z̄ block
    // (each pass computes one N-slice of z), and writes z̄ out once.
    bytes += static_cast<double>(nb) * static_cast<double>(st.num_nodes) *
             static_cast<double>(st.producer_in) * kBytesPerValue;
    bytes += feature_matrix_bytes;
  }
  const double dram_cycles = bytes / bw;

  // ---- Graph Engine compute ----------------------------------------------
  double lane_groups = 0.0;  // sum over blocks of ceil(width / lanes)
  for (std::uint64_t b = 0; b < nb; ++b) {
    const std::size_t width = b + 1 == nb ? tail_width : block;
    lane_groups += static_cast<double>(
        util::ceil_div(width, ir.config.graph.geometry.simd_lanes));
  }
  const double graph_cycles =
      static_cast<double>(st.agg_edges) / ir.config.graph.geometry.num_gpes * lane_groups +
      8.0 * static_cast<double>(S) * S * static_cast<double>(nb);

  // ---- Dense Engine compute ----------------------------------------------
  // z̄-part: per (block, column) series; deferred mode additionally chunks
  // rows through the input bank (spilled z̄ is re-streamed from DRAM).
  double dense_cycles = 0.0;
  for (std::uint64_t b = 0; b < nb; ++b) {
    const std::size_t width = b + 1 == nb ? tail_width : block;
    const std::uint64_t chunks = st.pipelined ? 1 : dram_row_chunks(dense_cfg, n, width);
    dense_cycles += static_cast<double>(S) *
                    series_cycles(array, n, width, st.consumer_out, chunks);
  }
  if (st.h_dims > 0) {
    const std::uint64_t chunks = dram_row_chunks(dense_cfg, n, st.h_dims);
    dense_cycles += static_cast<double>(S) *
                    series_cycles(array, n, st.h_dims, st.consumer_out, chunks);
  }
  if (st.producer_in > 0) {
    const std::uint64_t chunks = dram_row_chunks(dense_cfg, n, st.producer_in);
    dense_cycles += static_cast<double>(nb) * static_cast<double>(S) *
                    series_cycles(array, n, st.producer_in, block, chunks);
  }

  // ---- Pipeline serialisation tails --------------------------------------
  double tail = 0.0;
  if (st.pipelined && st.h_dims == 0) {
    // Graph-first with no independent dense work: the consumer's final
    // (block x column) series runs strictly after the last column token.
    tail = series_cycles(array, n, tail_width, st.consumer_out, 1);
  } else if (!st.pipelined) {
    // Deferred: the last column's whole K-chain is serialised behind its
    // final aggregation token.
    tail = dense_cycles / static_cast<double>(S);
  }
  if (st.producer_in > 0 && traversal == shard::Traversal::kDestStationary && S > 1) {
    // Dense-first + dest-stationary: completing any destination column
    // needs *every* source interval of the block produced first, so the
    // Graph Engine idles for most of the producer's pass; source-stationary
    // overlaps all but the last interval (paper §III-C producer mode).
    tail += graph_cycles / static_cast<double>(nb) * (1.0 - 1.0 / static_cast<double>(S));
  }

  cand.cycles = std::max({dram_cycles, graph_cycles, dense_cycles}) + tail;
  return cand;
}
/// Array-aligned block candidates: multiples of the systolic k-tile height
/// (full-height tiles keep the weight-stationary stream count minimal), a
/// couple of sub-array widths for bandwidth-starved stages, and the
/// unblocked full dimensionality.
std::vector<std::size_t> autotune_block_candidates(const StageGraph& ir, std::size_t dims) {
  const std::size_t r = ir.config.dense.array.rows;
  std::vector<std::size_t> cands;
  for (const std::size_t c : {r / 4, r / 2, r, 2 * r, 3 * r, 4 * r, 6 * r, 8 * r}) {
    if (c >= 1) {
      cands.push_back(std::min(c, dims));
    }
  }
  cands.push_back(default_block(ir, dims));
  cands.push_back(dims);
  std::sort(cands.begin(), cands.end());
  cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
  return cands;
}

StageShape stage_shape_for(const StageGraph& ir, std::uint32_t i) {
  const StageNode& node = ir.nodes[i];
  GNNERATOR_CHECK(node.is_aggregate());
  const std::uint32_t consumer = consumer_of(ir, i);
  StageShape st;
  st.num_nodes = ir.dataset_graph->num_nodes();
  st.agg_edges = ir.agg_edge_count;
  st.dims = node.agg.dims;
  st.consumer_out = ir.nodes[consumer].spec.out_dim;
  st.h_dims = ir.nodes[consumer].spec.concat_layer_input
                  ? ir.nodes[consumer].spec.in_dim - node.agg.dims
                  : 0;
  const bool dense_first = node.stage_index > 0 && !ir.nodes[i - 1].is_aggregate();
  st.producer_in = dense_first ? ir.nodes[i - 1].spec.in_dim : 0;
  st.pipelined = consumer_psums_fit(ir, st.consumer_out);
  st.edges_cached = edge_list_cacheable(ir);
  return st;
}

void autotune_pass(StageGraph& ir) {
  const bool block_pinned = !ir.options.feature_blocking || ir.options.block_size != 0;
  const bool traversal_pinned = ir.options.traversal.has_value();
  if (block_pinned && traversal_pinned) {
    return;  // everything overridden globally: nothing to tune
  }

  for (std::uint32_t i = 0; i < ir.nodes.size(); ++i) {
    StageNode& node = ir.nodes[i];
    if (!node.is_aggregate()) {
      continue;
    }
    const StageShape st = stage_shape_for(ir, i);

    const std::vector<std::size_t> blocks =
        block_pinned ? std::vector<std::size_t>{node.agg.block}
                     : autotune_block_candidates(ir, st.dims);
    const std::vector<shard::Traversal> traversals =
        traversal_pinned
            ? std::vector<shard::Traversal>{*ir.options.traversal}
            : std::vector<shard::Traversal>{shard::Traversal::kDestStationary,
                                            shard::Traversal::kSourceStationary};

    // The reference point every candidate must beat by the margin: the
    // paper-default block with the Table I traversal at its grid dimension.
    CandidateCost incumbent;
    {
      const std::size_t b0 = node.agg.block;  // set by the feature-blocking pass
      shard::SizingPolicy policy;
      policy.edge_buffer_bytes = 0;
      const auto s0 = shard::choose_shard_size(ir.config.graph.feature_scratch_bytes, b0,
                                               static_cast<graph::NodeId>(st.num_nodes), policy);
      const shard::Traversal t0 = traversal_pinned
                                      ? *ir.options.traversal
                                      : shard::choose_traversal(s0.grid_dim, 1.0);
      incumbent = evaluate_stage_candidate(ir, st, b0, t0);
      GNNERATOR_CHECK_MSG(incumbent.feasible, "default block infeasible for autotune baseline");
    }

    CandidateCost best = incumbent;
    for (const std::size_t b : blocks) {
      for (const shard::Traversal t : traversals) {
        const CandidateCost cand = evaluate_stage_candidate(ir, st, b, t);
        if (cand.feasible && cand.cycles < best.cycles) {
          best = cand;
        }
      }
    }

    const bool deviates = best.block != incumbent.block || best.traversal != incumbent.traversal;
    if (deviates && best.cycles < (1.0 - kAutotuneDeviationMargin) * incumbent.cycles) {
      node.agg.block = best.block;
      node.agg.num_blocks = util::ceil_div(node.agg.dims, node.agg.block);
      node.agg.traversal = best.traversal;
      node.tuned = true;
    }
    // Otherwise keep the feature-blocking pass's default; the traversal
    // pass will apply the Table I choice at the resolved grid dimension.
  }
}

}  // namespace gnnerator::core::compiler
