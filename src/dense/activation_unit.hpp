#pragma once

#include <cstdint>
#include <span>

#include "gnn/layers.hpp"

namespace gnnerator::dense {

/// The 1-D activation unit at the systolic array's output (paper §III-A).
/// It is pipelined with the array drain, so it adds no cycles; what it does
/// contribute is functional semantics and op counting.
class ActivationUnit {
 public:
  /// Applies `act` in place and counts ops.
  void apply(gnn::Activation act, std::span<float> values);

  /// Activations applied so far (kNone is free and counts none).
  [[nodiscard]] std::uint64_t ops() const { return ops_; }

 private:
  std::uint64_t ops_ = 0;
};

}  // namespace gnnerator::dense
