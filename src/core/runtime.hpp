#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/plan.hpp"
#include "gnn/tensor.hpp"
#include "gnn/weights.hpp"
#include "graph/datasets.hpp"

namespace gnnerator::core {

/// Read-only view of a row-major [rows x cols] fp32 matrix held elsewhere.
struct TensorView {
  const float* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
};

/// Output rows [begin, end) that one call of a work item may write; the
/// default band is every row.
struct RowBand {
  std::uint32_t begin = 0;
  std::uint32_t end = std::numeric_limits<std::uint32_t>::max();
};

/// Functional execution state: the tensors every stage reads and writes.
/// The runtime interprets the plan's functional descriptors against these
/// buffers — the simulator's arithmetic is therefore defined entirely by
/// the compiler's lowering, which is exactly what the functional-equivalence
/// tests pin against the reference executor.
class RuntimeState {
 public:
  /// `features` is the row-major [V x input_dim] layer-0 input. It is
  /// borrowed, not copied, and must outlive the state. Allocates one output
  /// tensor per (layer, stage): zeros for a dense stage, whose GEMM ops
  /// accumulate, and unset for an aggregation stage, whose column-initialising
  /// tasks (init_accumulator) write every element before any task reads it.
  RuntimeState(const LoweredModel& plan, std::span<const float> features,
               const gnn::ModelWeights& weights);
  /// Borrows `features`, which must be [V x input_dim].
  RuntimeState(const LoweredModel& plan, const gnn::Tensor& features,
               const gnn::ModelWeights& weights);

  /// Resolves a TensorRef (stage == -1 -> the layer's input).
  [[nodiscard]] TensorView tensor(TensorRef ref) const;
  /// A stage's output (layer inputs are read-only).
  [[nodiscard]] gnn::Tensor& mutable_tensor(TensorRef ref);

  /// The network output: last layer's last stage.
  [[nodiscard]] const gnn::Tensor& final_output() const;

  /// Executes one work item's arithmetic on the output rows in `band`.
  /// Every element keeps its serial order of operations: ascending k for a
  /// GEMM, edge order for an aggregation. Calls on disjoint bands touch
  /// disjoint elements and may run concurrently; on one band, items that
  /// accumulate into the same elements must run in program order. Throws
  /// CheckError, before touching any element, for work whose ranges do not
  /// fit the state's tensors.
  void run_gemm(const GemmWork& op, RowBand band = {});
  void run_agg(const AggWork& task, RowBand band = {});

 private:
  const LoweredModel& plan_;
  std::span<const float> features_;
  const gnn::ModelWeights& weights_;
  /// stage_outputs_[layer][stage] — output tensor of that stage.
  std::vector<std::vector<gnn::Tensor>> stage_outputs_;
};

}  // namespace gnnerator::core
