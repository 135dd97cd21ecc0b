#include "core/runtime.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/check.hpp"

namespace gnnerator::core {

namespace {

// ---------------------------------------------------------------------------
// Register-blocked kernels. A kernel loads a block of one output row into
// registers, applies every term of its sequence to the block in order, and
// stores it once. Each lane does what the scalar loop `out += s * x` (or
// `out = std::max(out, x)`) does: one rounded multiply, then one rounded
// add, in the same order, so how a row is cut into blocks never moves a bit.
//
// The executor hands run_agg one task per shard visit spanning all of a
// row's feature blocks, [0, dims): aggregate_edges stages a destination's
// in-edges (source row and coefficient) once and walks the whole row in
// register blocks. The plan's own one-block tasks, run one by one, compute
// the same bits over their columns.
//
// The generic vectors below are plain SSE2 on x86-64 and need no target
// flag. Baseline x86-64 has no FMA instruction, so the compiler cannot
// contract a multiply-add pair. A wider ISA can bring FMA with it and
// change the bits (GCC contracts C++ by default): a -march with FMA does,
// and so does target("avx512f"), under which GCC 12 emits vfmadd.
// ---------------------------------------------------------------------------

using Vec = float __attribute__((vector_size(16)));
constexpr std::size_t kLanes = sizeof(Vec) / sizeof(float);

Vec load(const float* p) {
  Vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store(float* p, Vec v) { std::memcpy(p, &v, sizeof v); }

/// NV vectors (4 * NV consecutive columns) of one output row, held in
/// registers while a kernel accumulates into them.
template <int NV>
struct Accumulator {
  Vec v[NV];

  explicit Accumulator(const float* p) {
#pragma GCC unroll 8
    for (int j = 0; j < NV; ++j) {
      v[j] = load(p + j * kLanes);
    }
  }
  /// block += s * row, lane by lane.
  void add_product(float s, const float* row) {
    const Vec sv = {s, s, s, s};
#pragma GCC unroll 8
    for (int j = 0; j < NV; ++j) {
      v[j] += sv * load(row + j * kLanes);
    }
  }
  /// block = std::max(block, row), lane by lane.
  void max_with(const float* row) {
#pragma GCC unroll 8
    for (int j = 0; j < NV; ++j) {
      const Vec x = load(row + j * kLanes);
      v[j] = v[j] < x ? x : v[j];
    }
  }
  void relu() {
    const Vec zero = {};
#pragma GCC unroll 8
    for (int j = 0; j < NV; ++j) {
      v[j] = v[j] > zero ? v[j] : zero;
    }
  }
  void store_to(float* p) const {
#pragma GCC unroll 8
    for (int j = 0; j < NV; ++j) {
      store(p + j * kLanes, v[j]);
    }
  }
};

/// One column: the tail of a block width that is not a multiple of 4.
template <>
struct Accumulator<0> {
  float s;

  explicit Accumulator(const float* p) : s(*p) {}
  void add_product(float c, const float* row) { s += c * *row; }
  void max_with(const float* row) { s = std::max(s, *row); }
  void relu() { s = s > 0.0f ? s : 0.0f; }
  void store_to(float* p) const { *p = s; }
};

/// Covers columns [0, width) with register blocks of 8, 4, 2 and 1 vectors,
/// then single columns: calls `block.template operator()<NV>(offset)` for
/// each block, NV == 0 being one column.
template <class Block>
void for_each_block(std::size_t width, Block&& block) {
  std::size_t d = 0;
  for (; width - d >= 8 * kLanes; d += 8 * kLanes) {
    block.template operator()<8>(d);
  }
  if (width - d >= 4 * kLanes) {
    block.template operator()<4>(d);
    d += 4 * kLanes;
  }
  if (width - d >= 2 * kLanes) {
    block.template operator()<2>(d);
    d += 2 * kLanes;
  }
  if (width - d >= kLanes) {
    block.template operator()<1>(d);
    d += kLanes;
  }
  for (; d < width; ++d) {
    block.template operator()<0>(d);
  }
}

/// In-edges of one destination staged at a time: their source rows and
/// edge coefficients, computed once for every register block of the
/// destination and outside the blocked loop, where the coefficient call
/// would clobber every vector register.
constexpr std::size_t kStagedEdges = 64;

/// Accumulates edges [first, last) of one shard (destination-major) into
/// the accumulator block [d_begin, d_end): each destination's block stays
/// in registers across its run of in-edges.
template <bool kMax>
void aggregate_edges(const graph::Edge* first, const graph::Edge* last, TensorView in,
                     gnn::Tensor& acc, std::size_t d_begin, std::size_t width,
                     gnn::AggregateOp op, const std::vector<std::uint32_t>& in_degree) {
  const float* rows[kStagedEdges];
  float coeffs[kStagedEdges];
  while (first != last) {
    const graph::NodeId dst = first->dst;
    float* acc_row = acc.data() + static_cast<std::size_t>(dst) * acc.cols() + d_begin;
    std::size_t staged = 0;
    for (; staged < kStagedEdges && first != last && first->dst == dst; ++staged, ++first) {
      rows[staged] = in.data + static_cast<std::size_t>(first->src) * in.cols + d_begin;
      if constexpr (!kMax) {
        coeffs[staged] = gnn::aggregation_edge_coeff(op, in_degree[first->src], in_degree[dst]);
      }
    }
    for_each_block(width, [&]<int NV>(std::size_t d) {
      Accumulator<NV> block(acc_row + d);
      for (std::size_t i = 0; i < staged; ++i) {
        if constexpr (kMax) {
          block.max_with(rows[i] + d);
        } else {
          block.add_product(coeffs[i], rows[i] + d);
        }
      }
      block.store_to(acc_row + d);
    });
  }
}

}  // namespace

RuntimeState::RuntimeState(const LoweredModel& plan, std::span<const float> features,
                           const gnn::ModelWeights& weights)
    : plan_(plan), features_(features), weights_(weights) {
  const std::size_t num_nodes = plan_.agg_graph->num_nodes();
  const std::size_t input_dim = plan_.model.input_dim();
  GNNERATOR_CHECK_MSG(features_.size() == num_nodes * input_dim,
                      "features hold " << features_.size() << " values, expected V x input_dim = "
                                       << num_nodes << " x " << input_dim);
  GNNERATOR_CHECK(weights_.layers.size() == plan_.model.layers.size());

  stage_outputs_.resize(plan_.model.layers.size());
  for (std::size_t l = 0; l < plan_.model.layers.size(); ++l) {
    const auto stages = gnn::layer_stages(plan_.model.layers[l]);
    stage_outputs_[l].reserve(stages.size());
    for (const gnn::StageSpec& stage : stages) {
      stage_outputs_[l].push_back(stage.kind == gnn::StageSpec::Kind::kDense
                                      ? gnn::Tensor(num_nodes, stage.out_dim)
                                      : gnn::Tensor::for_overwrite(num_nodes, stage.dims));
    }
  }
}

RuntimeState::RuntimeState(const LoweredModel& plan, const gnn::Tensor& features,
                           const gnn::ModelWeights& weights)
    : RuntimeState(plan, std::span<const float>(features.data(), features.size()), weights) {
  GNNERATOR_CHECK_MSG(features.rows() == plan_.agg_graph->num_nodes(),
                      "feature rows " << features.rows() << " != V "
                                      << plan_.agg_graph->num_nodes());
}

TensorView RuntimeState::tensor(TensorRef ref) const {
  if (ref.stage < 0) {
    if (ref.layer == 0) {
      return {features_.data(), plan_.agg_graph->num_nodes(), plan_.model.input_dim()};
    }
    GNNERATOR_CHECK(ref.layer - 1 < stage_outputs_.size());
    GNNERATOR_CHECK(!stage_outputs_[ref.layer - 1].empty());
    const std::size_t last_stage = stage_outputs_[ref.layer - 1].size() - 1;
    ref = TensorRef{ref.layer - 1, static_cast<std::int32_t>(last_stage)};
  }
  GNNERATOR_CHECK(ref.layer < stage_outputs_.size());
  GNNERATOR_CHECK(static_cast<std::size_t>(ref.stage) < stage_outputs_[ref.layer].size());
  const gnn::Tensor& t = stage_outputs_[ref.layer][static_cast<std::size_t>(ref.stage)];
  return {t.data(), t.rows(), t.cols()};
}

gnn::Tensor& RuntimeState::mutable_tensor(TensorRef ref) {
  GNNERATOR_CHECK_MSG(ref.stage >= 0, "layer inputs are read-only");
  GNNERATOR_CHECK(ref.layer < stage_outputs_.size());
  GNNERATOR_CHECK(static_cast<std::size_t>(ref.stage) < stage_outputs_[ref.layer].size());
  return stage_outputs_[ref.layer][static_cast<std::size_t>(ref.stage)];
}

const gnn::Tensor& RuntimeState::final_output() const {
  GNNERATOR_CHECK(!stage_outputs_.empty() && !stage_outputs_.back().empty());
  return stage_outputs_.back().back();
}

void RuntimeState::run_gemm(const GemmWork& op, RowBand band) {
  const TensorView a = tensor(op.a);
  const gnn::Tensor& w = weights_.weight(op.layer, op.weight_index);
  gnn::Tensor& out = mutable_tensor(op.out);
  GNNERATOR_CHECK_MSG(a.data != out.data(), "GEMM op " << op.tag << " reads its own output");
  GNNERATOR_CHECK_MSG(op.row_begin <= op.row_end && op.row_end <= a.rows &&
                          op.row_end <= out.rows(),
                      "GEMM op " << op.tag << " rows [" << op.row_begin << ", " << op.row_end
                                 << ") do not fit A rows " << a.rows << " and output rows "
                                 << out.rows());
  GNNERATOR_CHECK_MSG(op.k_begin <= op.k_end && op.k_end <= a.cols,
                      "GEMM op " << op.tag << " k range [" << op.k_begin << ", " << op.k_end
                                 << ") does not fit A cols " << a.cols);
  const std::size_t num_k = op.k_end - op.k_begin;
  GNNERATOR_CHECK_MSG(op.wrow_begin + num_k <= w.rows(),
                      "GEMM op " << op.tag << " weight rows [" << op.wrow_begin << ", "
                                 << op.wrow_begin + num_k << ") exceed " << w.rows());
  GNNERATOR_CHECK_MSG(op.n_begin <= op.n_end && op.n_end <= w.cols() && op.n_end <= out.cols(),
                      "GEMM op " << op.tag << " columns [" << op.n_begin << ", " << op.n_end
                                 << ") do not fit W cols " << w.cols() << " and output cols "
                                 << out.cols());

  bool relu = false;
  if (op.apply_act) {
    switch (op.act) {
      case gnn::Activation::kNone:
        break;
      case gnn::Activation::kRelu:
        relu = true;
        break;
    }
  }
  // Sparse-ish A (raw features, ReLU'd activations) skips zero terms; dense
  // A (aggregated features) takes every term.
  const bool skip_zero = op.a_maybe_sparse;
  const std::size_t w_stride = w.cols();
  const float* w_block = w.data() + op.wrow_begin * w_stride + op.n_begin;
  const std::uint32_t row_end = std::min(op.row_end, band.end);
  for (std::size_t r = std::max(op.row_begin, band.begin); r < row_end; ++r) {
    const float* a_row = a.data + r * a.cols + op.k_begin;
    float* out_row = out.data() + r * out.cols() + op.n_begin;
    for_each_block(op.n_end - op.n_begin, [&]<int NV>(std::size_t n) {
      Accumulator<NV> block(out_row + n);
      const float* w_col = w_block + n;
      if (skip_zero) {
        for (std::size_t k = 0; k < num_k; ++k) {
          if (a_row[k] != 0.0f) {
            block.add_product(a_row[k], w_col + k * w_stride);
          }
        }
      } else {
        for (std::size_t k = 0; k < num_k; ++k) {
          block.add_product(a_row[k], w_col + k * w_stride);
        }
      }
      if (relu) {
        block.relu();
      }
      block.store_to(out_row + n);
    });
  }
}

void RuntimeState::run_agg(const AggWork& task, RowBand band) {
  GNNERATOR_CHECK_MSG(task.agg_stage < plan_.agg_stages.size(),
                      "aggregation task " << task.tag << " names stage " << task.agg_stage
                                          << " of " << plan_.agg_stages.size());
  const AggStagePlan& stage = plan_.agg_stages[task.agg_stage];
  const TensorView in = tensor(stage.input);
  gnn::Tensor& acc = mutable_tensor(stage.output);
  GNNERATOR_CHECK_MSG(stage.grid != nullptr,
                      "aggregation stage " << task.agg_stage << " has no grid");
  const shard::ShardGrid& grid = *stage.grid;
  GNNERATOR_CHECK_MSG(in.data != acc.data(),
                      "aggregation task " << task.tag << " reads its own accumulator");
  GNNERATOR_CHECK_MSG(grid.num_nodes() == in.rows && grid.num_nodes() == acc.rows() &&
                          grid.num_nodes() == plan_.base_in_degree.size(),
                      "aggregation task " << task.tag << ": grid over " << grid.num_nodes()
                                          << " vertices, input rows " << in.rows
                                          << ", accumulator rows " << acc.rows()
                                          << ", in-degrees " << plan_.base_in_degree.size());
  GNNERATOR_CHECK_MSG(task.d_begin <= task.d_end && task.d_end <= in.cols &&
                          task.d_end <= acc.cols(),
                      "aggregation task " << task.tag << " block [" << task.d_begin << ", "
                                          << task.d_end << ") does not fit input cols "
                                          << in.cols << " and accumulator cols " << acc.cols());

  // Destinations of this task inside the band.
  const graph::NodeId rows_begin = std::max(band.begin, grid.interval_begin(task.coord.col));
  const graph::NodeId rows_end = std::min(band.end, grid.interval_end(task.coord.col));
  const std::span<const graph::Edge> edges = grid.shard_edges(task.coord);
  if (rows_begin >= rows_end) {
    return;
  }
  const bool is_max = stage.op == gnn::AggregateOp::kMax;
  const std::size_t width = task.d_end - task.d_begin;

  if (task.init_accumulator) {
    const float init = is_max ? -std::numeric_limits<float>::infinity() : 0.0f;
    for (std::size_t v = rows_begin; v < rows_end; ++v) {
      float* row = acc.data() + v * acc.cols() + task.d_begin;
      std::fill(row, row + width, init);
    }
  }

  // Shard edges are destination-major, so the band's edges are one span.
  const auto dst_before = [](const graph::Edge& e, graph::NodeId v) { return e.dst < v; };
  const graph::Edge* first =
      std::lower_bound(edges.data(), edges.data() + edges.size(), rows_begin, dst_before);
  const graph::Edge* last =
      std::lower_bound(first, edges.data() + edges.size(), rows_end, dst_before);
  if (is_max) {
    aggregate_edges<true>(first, last, in, acc, task.d_begin, width, stage.op,
                          plan_.base_in_degree);
  } else {
    aggregate_edges<false>(first, last, in, acc, task.d_begin, width, stage.op,
                           plan_.base_in_degree);
  }
}

}  // namespace gnnerator::core
