#include "dense/systolic.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/units.hpp"

namespace gnnerator::dense {

std::string_view dataflow_name(SystolicDataflow dataflow) {
  switch (dataflow) {
    case SystolicDataflow::kOutputStationary:
      return "output-stationary";
    case SystolicDataflow::kWeightStationary:
      return "weight-stationary";
  }
  return "unknown";
}

std::uint64_t tile_cycles(const SystolicConfig& config, std::uint32_t rows_used,
                          std::uint32_t cols_used, std::uint64_t k) {
  GNNERATOR_CHECK(rows_used >= 1 && rows_used <= config.rows);
  GNNERATOR_CHECK(cols_used >= 1 && cols_used <= config.cols);
  GNNERATOR_CHECK(k >= 1);
  switch (config.dataflow) {
    case SystolicDataflow::kOutputStationary:
      return k + rows_used + cols_used - 2;
    case SystolicDataflow::kWeightStationary:
      // rows_used cycles of weight preload, then the stream + skew drain.
      return rows_used + (k + rows_used + cols_used - 2);
  }
  return 0;
}

std::uint64_t gemm_cycles(const SystolicConfig& config, const GemmShape& shape) {
  GNNERATOR_CHECK_MSG(shape.m >= 1 && shape.k >= 1 && shape.n >= 1,
                      "degenerate GEMM " << shape.m << "x" << shape.k << "x" << shape.n);
  std::uint64_t total = 0;
  if (config.dataflow == SystolicDataflow::kOutputStationary) {
    // Tiles over the output: each holds psums for rows_used x cols_used
    // cells while the K dimension streams through once.
    const std::uint64_t row_tiles = util::ceil_div(shape.m, config.rows);
    const std::uint64_t col_tiles = util::ceil_div(shape.n, config.cols);
    for (std::uint64_t rt = 0; rt < row_tiles; ++rt) {
      const auto rows_used = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(config.rows, shape.m - rt * config.rows));
      for (std::uint64_t ct = 0; ct < col_tiles; ++ct) {
        const auto cols_used = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(config.cols, shape.n - ct * config.cols));
        total += tile_cycles(config, rows_used, cols_used, shape.k);
      }
    }
  } else {
    // Weight-stationary: tiles over K x N weights; all M activations stream
    // per tile (psums accumulate across K tiles in the output buffer).
    const std::uint64_t k_tiles = util::ceil_div(shape.k, config.rows);
    const std::uint64_t col_tiles = util::ceil_div(shape.n, config.cols);
    for (std::uint64_t kt = 0; kt < k_tiles; ++kt) {
      const auto rows_used = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(config.rows, shape.k - kt * config.rows));
      for (std::uint64_t ct = 0; ct < col_tiles; ++ct) {
        const auto cols_used = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(config.cols, shape.n - ct * config.cols));
        total += tile_cycles(config, rows_used, cols_used, shape.m);
      }
    }
  }
  return total;
}

}  // namespace gnnerator::dense
