#include <algorithm>
#include <utility>
#include <vector>

#include "core/compiler/passes.hpp"
#include "gengine/gpe.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace gnnerator::core::compiler {

namespace {

using gnn::StageSpec;
using shard::ShardCoord;
using shard::Traversal;

/// Upper bound on the K extent of a single GEMM op: beyond this, fill/drain
/// amortisation is total and splitting only adds schedule flexibility.
constexpr std::uint64_t kMaxKChunk = 4096;

/// GEMM tiling decisions for one dense emission series.
struct ChunkPlan {
  std::uint64_t m_chunk = 0;
  std::uint64_t k_chunk = 0;
  std::uint64_t n_chunk = 0;
};

/// Solves operand-residency constraints for a GEMM of `rows x K x N`:
/// the A tile must fit an input bank when streamed from DRAM, the W tile a
/// weight bank, and — when psums are not globally resident — the psum tile
/// an output bank.
///
/// The preferred chunk shape depends on the array dataflow:
///  * weight-stationary: a K tile of array-row height loads once and the
///    whole row extent streams through it, so k_chunk = array rows and
///    m_chunk as large as the banks allow (splitting M re-pays the weight
///    load and drain per split);
///  * output-stationary: psums stay in the PEs while K streams, so K stays
///    as long as the banks allow and M splits at array-row granularity.
ChunkPlan plan_chunks(std::uint64_t rows, std::uint64_t k, std::uint64_t n, bool a_from_dram,
                      bool psum_per_chunk, const dense::DenseEngineConfig& cfg) {
  GNNERATOR_CHECK(rows >= 1 && k >= 1 && n >= 1);
  ChunkPlan plan;
  const bool ws = cfg.array.dataflow == dense::SystolicDataflow::kWeightStationary;

  plan.k_chunk = ws ? std::min<std::uint64_t>(k, cfg.array.rows)
                    : std::min<std::uint64_t>(k, kMaxKChunk);
  // Weight tile k_chunk x n_chunk x 4 <= weight bank. Prefer full N.
  plan.n_chunk = n;
  if (plan.k_chunk * plan.n_chunk * kBytesPerValue > cfg.weight_bank_bytes()) {
    plan.n_chunk = cfg.weight_bank_bytes() / (plan.k_chunk * kBytesPerValue);
    if (plan.n_chunk < cfg.array.cols) {
      // Narrow N instead of K only when K shrinking keeps tiles efficient.
      plan.n_chunk = std::min<std::uint64_t>(n, cfg.array.cols);
      plan.k_chunk = cfg.weight_bank_bytes() / (plan.n_chunk * kBytesPerValue);
      GNNERATOR_CHECK_MSG(plan.k_chunk >= 1, "weight bank cannot hold a single array column");
      plan.k_chunk = std::min(plan.k_chunk, k);
    } else {
      plan.n_chunk = std::min<std::uint64_t>(
          n, (plan.n_chunk / cfg.array.cols) * cfg.array.cols);
    }
  }

  plan.m_chunk = rows;
  if (a_from_dram) {
    const std::uint64_t limit = cfg.input_bank_bytes() / (plan.k_chunk * kBytesPerValue);
    GNNERATOR_CHECK_MSG(limit >= 1, "input bank cannot hold one row of K=" << plan.k_chunk);
    plan.m_chunk = std::min(plan.m_chunk, limit);
  }
  if (psum_per_chunk) {
    const std::uint64_t limit = cfg.output_bank_bytes() / (plan.n_chunk * kBytesPerValue);
    GNNERATOR_CHECK_MSG(limit >= 1, "output bank cannot hold one row of N=" << plan.n_chunk);
    plan.m_chunk = std::min(plan.m_chunk, limit);
  }
  // For OS, round M to array-row multiples when that does not zero the
  // chunk (partial tiles waste rows); WS streams M, no rounding wanted.
  if (!ws && plan.m_chunk > cfg.array.rows) {
    plan.m_chunk = (plan.m_chunk / cfg.array.rows) * cfg.array.rows;
  }
  GNNERATOR_CHECK(plan.m_chunk >= 1);
  return plan;
}

/// Emission state threaded through the per-stage emitters.
struct Emitter {
  StageGraph& ir;
  LoweredModel& out;
  std::uint32_t next_tag = 0;
};

/// Graph Engine program for one aggregation stage (IR node `i`).
void emit_aggregation(Emitter& em, std::uint32_t i, std::uint32_t agg_plan_index,
                      bool& first_graph_task_of_layer, sim::TokenId prev_layer_token) {
  StageGraph& ir = em.ir;
  const AggStagePlan& plan = em.out.agg_stages[agg_plan_index];
  const shard::ShardGrid& grid = *plan.grid;
  const std::uint32_t S = plan.sizing.grid_dim;
  const bool dense_first = !ir.ivl_tokens[i].empty();
  const bool edges_cached = plan.edges_cached;

  const std::vector<ShardCoord> order = shard::make_traversal(S, plan.traversal);
  // Non-empty coords in traversal order (empty shards are skipped
  // entirely; self loops guarantee every column keeps at least its
  // diagonal shard).
  std::vector<ShardCoord> live;
  live.reserve(order.size());
  for (const ShardCoord coord : order) {
    if (!grid.shard_empty(coord)) {
      live.push_back(coord);
    }
  }
  GNNERATOR_CHECK(!live.empty());

  // First/last visit positions per column within one block pass.
  std::vector<std::size_t> first_pos(S, live.size());
  std::vector<std::size_t> last_pos(S, 0);
  for (std::size_t p = 0; p < live.size(); ++p) {
    first_pos[live[p].col] = std::min(first_pos[live[p].col], p);
    last_pos[live[p].col] = std::max(last_pos[live[p].col], p);
  }
  for (std::uint32_t c = 0; c < S; ++c) {
    GNNERATOR_CHECK_MSG(first_pos[c] < live.size(),
                        "column " << c << " has no edges despite self loops");
  }

  // A shard's compute cycles at any block width follow from its largest
  // per-GPE edge count, so each shard is partitioned across GPEs once.
  const gengine::GpeGeometry& geometry = ir.config.graph.geometry;
  std::vector<std::uint32_t> max_edges(live.size());  // per live shard
  for (std::size_t p = 0; p < live.size(); ++p) {
    max_edges[p] = gengine::max_gpe_edges(grid.shard_edges(live[p]), geometry.num_gpes);
  }

  std::vector<bool> shard_fetched(static_cast<std::size_t>(S) * S, false);

  for (std::uint32_t b = 0; b < plan.num_blocks; ++b) {
    const std::size_t d0 = static_cast<std::size_t>(b) * plan.block;
    const std::size_t d1 = std::min(plan.dims, d0 + plan.block);
    const std::size_t width = d1 - d0;
    // Whether the previous emitted task left a *full* source-interval
    // slice resident (serpentine reuse is only sound then).
    bool prev_loaded_full_interval = false;

    for (std::size_t p = 0; p < live.size(); ++p) {
      const ShardCoord coord = live[p];
      const auto edges = grid.shard_edges(coord);
      AggWork work;
      work.agg_stage = agg_plan_index;
      work.coord = coord;
      work.d_begin = static_cast<std::uint32_t>(d0);
      work.d_end = static_cast<std::uint32_t>(d1);
      work.num_edges = static_cast<std::uint32_t>(edges.size());
      work.compute_cycles = gengine::shard_compute_cycles(max_edges[p], geometry, width);
      work.lane_ops = 2ULL * edges.size() * width;  // apply + reduce

      // Edge residency.
      const std::size_t shard_idx = static_cast<std::size_t>(coord.row) * S + coord.col;
      const std::uint64_t edge_bytes = edges.size() * kEdgeRecordBytes;
      if (!shard_fetched[shard_idx]) {
        work.edge_dma_bytes = edge_bytes;
        shard_fetched[shard_idx] = true;
      } else if (edges_cached) {
        work.onchip_edge_bytes = edge_bytes;
      } else {
        work.edge_dma_bytes = edge_bytes;
      }

      // Source features: one full interval slice per shard, reused
      // when the serpentine keeps the same source row. With sparsity
      // elimination (HyGCN-style extension, DataflowOptions), only
      // active rows are gathered when that is cheaper — gathered rows
      // pay DRAM transaction granularity per row.
      const bool same_row_as_prev = p > 0 && live[p - 1].row == coord.row;
      const std::uint64_t full_bytes =
          static_cast<std::uint64_t>(grid.interval_size(coord.row)) * width * kBytesPerValue;
      const std::uint64_t gather_bytes =
          static_cast<std::uint64_t>(grid.shard_sources(coord).size()) *
          util::round_up(width * kBytesPerValue, ir.config.dram.transaction_bytes);
      if (ir.options.sparsity_elimination && gather_bytes < full_bytes) {
        work.src_dma_bytes = gather_bytes;
        prev_loaded_full_interval = false;
      } else if (!(same_row_as_prev && prev_loaded_full_interval)) {
        work.src_dma_bytes = full_bytes;
        prev_loaded_full_interval = true;
      }

      const std::uint64_t col_bytes =
          static_cast<std::uint64_t>(grid.interval_size(coord.col)) * width * kBytesPerValue;
      const bool first_of_col = p == first_pos[coord.col];
      const bool last_of_col = p == last_pos[coord.col];
      work.init_accumulator = first_of_col;

      if (plan.traversal == Traversal::kDestStationary) {
        // Accumulators stay on-chip for the whole column.
        if (last_of_col) {
          work.produce_token = ir.col_tokens[i][b][coord.col];
          if (!plan.pipelined_consume) {
            work.dst_write_bytes = col_bytes;  // spill aggregated block
            work.signal_after_writeback = true;
          }
        }
      } else {
        // Source-stationary: partial accumulators shuttle to DRAM on
        // every column change (the serpentine saves the boundary).
        const bool prev_same_col = p > 0 && live[p - 1].col == coord.col;
        const bool next_same_col = p + 1 < live.size() && live[p + 1].col == coord.col;
        if (!first_of_col && !prev_same_col) {
          work.dst_load_bytes = col_bytes;  // reload partials
        }
        if (last_of_col) {
          work.produce_token = ir.col_tokens[i][b][coord.col];
          if (!plan.pipelined_consume) {
            work.dst_write_bytes = col_bytes;
            work.signal_after_writeback = true;
          }
        } else if (!next_same_col) {
          work.dst_write_bytes = col_bytes;  // spill partials
        }
      }

      // Controller interlocks.
      if (dense_first) {
        work.wait_token = ir.ivl_tokens[i][b][coord.row];
      } else if (first_graph_task_of_layer && prev_layer_token != sim::kNoToken) {
        work.wait_token = prev_layer_token;
      }
      first_graph_task_of_layer = false;

      em.out.predicted_dram_bytes += work.edge_dma_bytes + work.src_dma_bytes +
                                     work.dst_load_bytes + work.dst_write_bytes;
      em.out.total_edge_visits += work.num_edges;
      work.tag = em.next_tag++;
      em.out.graph_program.push_back(std::move(work));
    }
  }
}

/// Dense-first producer: z = act(Wp · h), emitted per (z block, source
/// interval) of the *next* stage's shard grid, so the Graph Engine can start
/// as soon as the first interval's block lands in DRAM.
void emit_dense_producer(Emitter& em, std::uint32_t i, std::uint32_t next_agg_plan_index) {
  StageGraph& ir = em.ir;
  const StageNode& node = ir.nodes[i];
  const StageSpec& stage = node.spec;
  GNNERATOR_CHECK(!stage.concat_layer_input);
  const std::uint32_t l = node.layer;
  const std::uint32_t s = node.stage_index;
  const AggStagePlan& nplan = em.out.agg_stages[next_agg_plan_index];
  const std::uint32_t agg_ir_node = i + 1;
  const shard::ShardGrid& grid = *nplan.grid;
  const std::uint32_t S = nplan.sizing.grid_dim;
  const std::uint64_t K = stage.in_dim;

  for (std::uint32_t b = 0; b < nplan.num_blocks; ++b) {
    const std::size_t n0 = static_cast<std::size_t>(b) * nplan.block;
    const std::size_t n1 = std::min<std::size_t>(stage.out_dim, n0 + nplan.block);
    const std::uint64_t n_width = n1 - n0;
    bool weights_loaded = false;  // W slice reused across intervals

    for (std::uint32_t r = 0; r < S; ++r) {
      const std::uint32_t row0 = grid.interval_begin(r);
      const std::uint32_t row1 = grid.interval_end(r);
      const ChunkPlan chunks = plan_chunks(row1 - row0, K, n_width,
                                           /*a_from_dram=*/true,
                                           /*psum_per_chunk=*/true, ir.config.dense);
      for (std::uint32_t m0 = row0; m0 < row1;
           m0 += static_cast<std::uint32_t>(chunks.m_chunk)) {
        const std::uint32_t m1 =
            std::min<std::uint32_t>(row1, m0 + static_cast<std::uint32_t>(chunks.m_chunk));
        for (std::uint64_t nn0 = 0; nn0 < n_width; nn0 += chunks.n_chunk) {
          const std::uint64_t nn1 = std::min(n_width, nn0 + chunks.n_chunk);
          for (std::uint64_t k0 = 0; k0 < K; k0 += chunks.k_chunk) {
            const std::uint64_t k1 = std::min(K, k0 + chunks.k_chunk);
            GemmWork op;
            op.layer = l;
            op.shape = dense::GemmShape{m1 - m0, k1 - k0, nn1 - nn0};
            op.a = stage.input == StageSpec::Input::kLayerInput
                       ? TensorRef{l, -1}
                       : TensorRef{l, static_cast<std::int32_t>(s) - 1};
            // Layer inputs are raw features or ReLU'd activations —
            // keep the zero-skip; anything else is dense.
            op.a_maybe_sparse = op.a.stage < 0;
            op.row_begin = m0;
            op.row_end = m1;
            op.k_begin = static_cast<std::uint32_t>(k0);
            op.k_end = static_cast<std::uint32_t>(k1);
            op.wrow_begin = static_cast<std::uint32_t>(k0);
            op.weight_index = static_cast<std::uint32_t>(stage.weight_index);
            op.n_begin = static_cast<std::uint32_t>(n0 + nn0);
            op.n_end = static_cast<std::uint32_t>(n0 + nn1);
            op.out = TensorRef{l, static_cast<std::int32_t>(s)};
            op.a_dma_bytes = op.shape.m * op.shape.k * kBytesPerValue;
            if (!weights_loaded) {
              op.w_dma_bytes = op.shape.k * op.shape.n * kBytesPerValue;
            }
            const bool last_k = k1 == K;
            const bool last_n = nn1 == n_width;
            if (last_k) {
              op.apply_act = true;
              op.act = stage.activation;
              op.out_write_bytes = op.shape.m * op.shape.n * kBytesPerValue;
            }
            if (last_k && last_n && m1 == row1) {
              op.produce_token = em.ir.ivl_tokens[agg_ir_node][b][r];
            }
            em.out.predicted_dram_bytes += op.a_dma_bytes + op.w_dma_bytes +
                                           op.psum_read_bytes + op.out_write_bytes;
            em.out.total_macs += op.shape.macs();
            op.tag = em.next_tag++;
            em.out.dense_program.push_back(std::move(op));
          }
        }
      }
      weights_loaded = true;
    }
  }
}

/// Graph-first consumer: out = act(W · [z̄ ‖ h]) (or just W·z̄ for GCN),
/// accumulated over feature blocks with psums resident when they fit,
/// deferred per-column otherwise.
void emit_dense_consumer(Emitter& em, std::uint32_t i, std::uint32_t agg_plan_index) {
  StageGraph& ir = em.ir;
  const StageNode& node = ir.nodes[i];
  const StageSpec& stage = node.spec;
  const DenseDecisions& dd = node.dense;
  const std::uint32_t l = node.layer;
  const std::uint32_t s = node.stage_index;
  const AggStagePlan& aplan = em.out.agg_stages[agg_plan_index];
  const std::uint32_t agg_ir_node = i - 1;
  const shard::ShardGrid& grid = *aplan.grid;
  const std::uint32_t S = aplan.sizing.grid_dim;
  const std::uint64_t n_total = stage.out_dim;
  const std::uint64_t agg_dims = aplan.dims;
  const std::uint64_t h_dims = dd.h_dims;
  const TensorRef agg_ref{l, static_cast<std::int32_t>(s) - 1};
  const TensorRef h_ref{l, -1};
  const TensorRef out_ref{l, static_cast<std::int32_t>(s)};

  // Weight-slice residency per K-slice width, resolved by the residency
  // pass: a slice shared by every column stays banked unless too large.
  const auto w_resident_for_block = [&](std::uint32_t b) {
    return b + 1 == aplan.num_blocks ? dd.w_resident_tail_block : dd.w_resident_full_block;
  };

  // Emits the GEMM series for rows [row0,row1) x A[k0,k1) with the
  // given residency.
  auto emit_series = [&](TensorRef a_ref, std::uint32_t row0, std::uint32_t row1,
                         std::uint32_t k0, std::uint32_t k1, std::uint32_t wrow0,
                         bool a_from_dram, bool psum_resident_global, bool w_resident,
                         sim::TokenId wait, bool final_accumulation) {
    const ChunkPlan chunks =
        plan_chunks(row1 - row0, k1 - k0, n_total, a_from_dram,
                    /*psum_per_chunk=*/!psum_resident_global, ir.config.dense);
    bool eligible_wait = wait != sim::kNoToken;
    for (std::uint32_t m0 = row0; m0 < row1;
         m0 += static_cast<std::uint32_t>(chunks.m_chunk)) {
      const std::uint32_t m1 =
          std::min<std::uint32_t>(row1, m0 + static_cast<std::uint32_t>(chunks.m_chunk));
      for (std::uint64_t nn0 = 0; nn0 < n_total; nn0 += chunks.n_chunk) {
        const std::uint64_t nn1 = std::min(n_total, nn0 + chunks.n_chunk);
        for (std::uint64_t kk0 = k0; kk0 < k1; kk0 += chunks.k_chunk) {
          const std::uint64_t kk1 = std::min<std::uint64_t>(k1, kk0 + chunks.k_chunk);
          GemmWork op;
          op.layer = l;
          op.shape = dense::GemmShape{m1 - m0, kk1 - kk0, nn1 - nn0};
          op.a = a_ref;
          // Aggregated inputs (stage >= 0) are dense; the h-part reads
          // the sparse-ish layer input.
          op.a_maybe_sparse = a_ref.stage < 0;
          op.row_begin = m0;
          op.row_end = m1;
          op.k_begin = static_cast<std::uint32_t>(kk0);
          op.k_end = static_cast<std::uint32_t>(kk1);
          op.wrow_begin = wrow0 + static_cast<std::uint32_t>(kk0 - k0);
          op.weight_index = static_cast<std::uint32_t>(stage.weight_index);
          op.n_begin = static_cast<std::uint32_t>(nn0);
          op.n_end = static_cast<std::uint32_t>(nn1);
          op.out = out_ref;
          if (a_from_dram) {
            op.a_dma_bytes = op.shape.m * op.shape.k * kBytesPerValue;
          }
          if (!w_resident) {
            op.w_dma_bytes = op.shape.k * op.shape.n * kBytesPerValue;
          }
          if (!psum_resident_global) {
            // Per-column psums live in the output bank for the duration
            // of the column's ops; no DRAM traffic (the deferred
            // schedule orders all of a column's ops consecutively).
          }
          if (eligible_wait) {
            op.wait_token = wait;
            eligible_wait = false;
          }
          if (final_accumulation && kk1 == k1) {
            op.apply_act = true;
            op.act = stage.activation;
            op.out_write_bytes = op.shape.m * op.shape.n * kBytesPerValue;
          }
          em.out.predicted_dram_bytes += op.a_dma_bytes + op.w_dma_bytes +
                                         op.psum_read_bytes + op.out_write_bytes;
          em.out.total_macs += op.shape.macs();
          op.tag = em.next_tag++;
          em.out.dense_program.push_back(std::move(op));
        }
      }
    }
  };

  if (aplan.pipelined_consume) {
    // h-part first: no graph dependency, overlaps aggregation.
    if (h_dims > 0) {
      bool first = true;
      for (std::uint32_t c = 0; c < S; ++c) {
        emit_series(h_ref, grid.interval_begin(c), grid.interval_end(c),
                    /*k0=*/0, static_cast<std::uint32_t>(h_dims),
                    /*wrow0=*/static_cast<std::uint32_t>(agg_dims),
                    /*a_from_dram=*/true,
                    /*psum_resident_global=*/true,
                    /*w_resident=*/dd.w_resident_h && !first, sim::kNoToken,
                    /*final_accumulation=*/false);
        first = false;
      }
    }
    // z̄-part: block-outer, column-inner — mirrors the Graph Engine's
    // production order; each (b, c) stalls on the column token.
    for (std::uint32_t b = 0; b < aplan.num_blocks; ++b) {
      const std::uint32_t k0 = static_cast<std::uint32_t>(b * aplan.block);
      const std::uint32_t k1 =
          static_cast<std::uint32_t>(std::min<std::size_t>(agg_dims, k0 + aplan.block));
      const bool last_block = b + 1 == aplan.num_blocks;
      const bool w_res = w_resident_for_block(b);
      bool first = true;
      for (std::uint32_t c = 0; c < S; ++c) {
        emit_series(agg_ref, grid.interval_begin(c), grid.interval_end(c), k0, k1,
                    /*wrow0=*/k0,
                    /*a_from_dram=*/false,  // shared-scratchpad hand-off
                    /*psum_resident_global=*/true,
                    /*w_resident=*/w_res && !first, ir.col_tokens[agg_ir_node][b][c],
                    /*final_accumulation=*/last_block);
        first = false;
      }
    }
  } else {
    // Deferred: z̄ spilled to DRAM by the Graph Engine; feature
    // extraction for a column starts only once all of its blocks have
    // been aggregated (the column's *last* block token). Row chunks are
    // the outer loop and every K contribution (all z̄ blocks, then h)
    // for a chunk runs consecutively, so the chunk's psum stays in the
    // output bank the whole time.
    const std::uint32_t b_last = static_cast<std::uint32_t>(aplan.num_blocks) - 1;
    for (std::uint32_t c = 0; c < S; ++c) {
      const std::uint32_t row0 = grid.interval_begin(c);
      const std::uint32_t row1 = grid.interval_end(c);
      // Unified row chunk respecting the tightest constraint among the
      // K parts (largest per-part k chunk drives the input bank).
      const std::uint64_t k_probe =
          std::max<std::uint64_t>(aplan.block,
                                  h_dims > 0 ? std::min<std::uint64_t>(h_dims, kMaxKChunk)
                                             : 1);
      const ChunkPlan row_chunks = plan_chunks(row1 - row0, k_probe, n_total,
                                               /*a_from_dram=*/true,
                                               /*psum_per_chunk=*/true, ir.config.dense);
      sim::TokenId wait = ir.col_tokens[agg_ir_node][b_last][c];
      for (std::uint32_t m0 = row0; m0 < row1;
           m0 += static_cast<std::uint32_t>(row_chunks.m_chunk)) {
        const std::uint32_t m1 = std::min<std::uint32_t>(
            row1, m0 + static_cast<std::uint32_t>(row_chunks.m_chunk));
        // z̄ blocks.
        for (std::uint32_t b = 0; b < aplan.num_blocks; ++b) {
          const std::uint32_t k0 = static_cast<std::uint32_t>(b * aplan.block);
          const std::uint32_t k1 =
              static_cast<std::uint32_t>(std::min<std::size_t>(agg_dims, k0 + aplan.block));
          const bool final_acc = h_dims == 0 && b + 1 == aplan.num_blocks;
          emit_series(agg_ref, m0, m1, k0, k1,
                      /*wrow0=*/k0,
                      /*a_from_dram=*/true,  // spilled z̄ read back
                      /*psum_resident_global=*/false,
                      /*w_resident=*/w_resident_for_block(b) && !(c == 0 && m0 == row0),
                      wait, final_acc);
          wait = sim::kNoToken;
        }
        // h part.
        if (h_dims > 0) {
          emit_series(h_ref, m0, m1,
                      /*k0=*/0, static_cast<std::uint32_t>(h_dims),
                      /*wrow0=*/static_cast<std::uint32_t>(agg_dims),
                      /*a_from_dram=*/true,
                      /*psum_resident_global=*/false,
                      /*w_resident=*/dd.w_resident_h && !(c == 0 && m0 == row0),
                      sim::kNoToken,
                      /*final_accumulation=*/true);
        }
      }
    }
  }
}

}  // namespace

void emit_pass(StageGraph& ir) {
  Emitter em{ir, ir.lowered, 0};
  LoweredModel& out = ir.lowered;
  out.model = ir.model;
  out.config = ir.config;
  out.options = ir.options;
  if (out.options.block_size == 0) {
    out.options.block_size = ir.config.dense.array.cols;  // record the paper default B = 64
  }
  out.agg_graph = ir.agg_graph;
  out.base_in_degree = ir.base_in_degree;
  out.token_names = ir.token_names;

  // Per-aggregation-stage plans in execution order, plus the per-dense-stage
  // decisions for plan inspection.
  std::vector<std::uint32_t> agg_plan_of_node(ir.nodes.size(), 0);
  for (std::uint32_t i = 0; i < ir.nodes.size(); ++i) {
    if (ir.nodes[i].is_aggregate()) {
      agg_plan_of_node[i] = static_cast<std::uint32_t>(out.agg_stages.size());
      out.agg_stages.push_back(ir.nodes[i].agg);
    }
  }
  for (std::uint32_t i = 0; i < ir.nodes.size(); ++i) {
    if (ir.nodes[i].is_aggregate()) {
      continue;
    }
    const DenseDecisions& d = ir.nodes[i].dense;
    DenseStagePlan plan;
    plan.layer = ir.nodes[i].layer;
    plan.stage_index = ir.nodes[i].stage_index;
    plan.producer_for_agg = d.role == DenseRole::kProducer;
    plan.agg_stage = agg_plan_of_node[d.agg_node];
    plan.h_dims = d.h_dims;
    plan.psums_resident = d.role == DenseRole::kConsumer && d.psums_resident;
    plan.w_resident_block = d.w_resident_full_block;
    plan.w_resident_tail_block = d.w_resident_tail_block;
    plan.w_resident_h = d.w_resident_h;
    out.dense_stages.push_back(plan);
  }

  for (std::uint32_t l = 0; l < ir.model.layers.size(); ++l) {
    const sim::TokenId prev_layer_token = l == 0 ? sim::kNoToken : ir.layer_tokens[l - 1];
    bool first_graph_task_of_layer = true;

    for (const std::uint32_t i : ir.layer_nodes[l]) {
      const StageNode& node = ir.nodes[i];
      if (node.is_aggregate()) {
        emit_aggregation(em, i, agg_plan_of_node[i], first_graph_task_of_layer,
                         prev_layer_token);
        continue;
      }
      if (node.dense.role == DenseRole::kProducer) {
        emit_dense_producer(em, i, agg_plan_of_node[node.dense.agg_node]);
        continue;
      }
      emit_dense_consumer(em, i, agg_plan_of_node[node.dense.agg_node]);

      // Layer-completion token rides on the very last dense op of the layer.
      if (i == ir.layer_nodes[l].back()) {
        GNNERATOR_CHECK(!out.dense_program.empty());
        GemmWork& last = out.dense_program.back();
        GNNERATOR_CHECK_MSG(last.produce_token == sim::kNoToken,
                            "last dense op of layer already carries a token");
        last.produce_token = ir.layer_tokens[l];
      }
    }
  }
  ir.mark(kProgramsEmitted);
}

}  // namespace gnnerator::core::compiler
