#pragma once

#include <cstdint>
#include <string_view>

namespace gnnerator::dense {

/// Mapping of the GEMM onto the array, following SCALE-Sim's analytical
/// timing models (the paper integrates SCALE-Sim for the Dense Engine).
enum class SystolicDataflow {
  kOutputStationary,  ///< psums stay in PEs; inputs and weights stream
  kWeightStationary,  ///< weights preloaded; activations stream through
};

[[nodiscard]] std::string_view dataflow_name(SystolicDataflow dataflow);

/// Geometry of the systolic array. Table IV's 8 TFLOP Dense Engine at 1 GHz
/// is 4096 MACs/cycle => 64x64 (and the paper cites "the width of the Dense
/// Engine systolic array of sixty-four").
struct SystolicConfig {
  std::uint32_t rows = 64;
  std::uint32_t cols = 64;
  SystolicDataflow dataflow = SystolicDataflow::kOutputStationary;

  [[nodiscard]] std::uint64_t macs_per_cycle() const {
    return static_cast<std::uint64_t>(rows) * cols;
  }
};

/// Dimensions of one GEMM: C[M x N] (+)= A[M x K] * W[K x N].
struct GemmShape {
  std::uint64_t m = 0;
  std::uint64_t k = 0;
  std::uint64_t n = 0;

  [[nodiscard]] std::uint64_t macs() const { return m * k * n; }
};

/// Cycles for one output tile of `rows_used` x `cols_used` PEs with a
/// K-deep reduction.
///
/// Output stationary: inputs skew in across `rows_used` rows while weights
/// skew across `cols_used` columns; a K-element stream completes after the
/// array fills and drains:  K + rows_used + cols_used - 2.
///
/// Weight stationary: the K x N weight tile (K mapped to rows) loads in
/// `rows_used` cycles, then M activations stream with fill/drain:
/// rows_used + (M + rows_used + cols_used - 2) — here the caller passes the
/// per-tile M as `k` (see gemm_cycles for the tiling difference).
[[nodiscard]] std::uint64_t tile_cycles(const SystolicConfig& config, std::uint32_t rows_used,
                                        std::uint32_t cols_used, std::uint64_t k);

/// Total compute cycles for a full GEMM, summing over all output tiles
/// (OS: ceil(M/rows) x ceil(N/cols) tiles; WS: ceil(K/rows) x ceil(N/cols)
/// weight tiles each streaming all M activations).
[[nodiscard]] std::uint64_t gemm_cycles(const SystolicConfig& config, const GemmShape& shape);

}  // namespace gnnerator::dense
