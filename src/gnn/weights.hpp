#pragma once

#include <cstdint>
#include <vector>

#include "gnn/layers.hpp"
#include "gnn/tensor.hpp"
#include "util/prng.hpp"

namespace gnnerator::gnn {

/// All weight matrices of a model, indexed [layer][weight_index] with the
/// shapes dictated by `layer_weight_shapes`.
struct ModelWeights {
  std::vector<std::vector<Tensor>> layers;

  [[nodiscard]] const Tensor& weight(std::size_t layer, std::size_t index) const;
};

/// Deterministic Glorot/Xavier-uniform initialisation:
/// W_ij ~ U(-a, a) with a = sqrt(6 / (fan_in + fan_out)).
ModelWeights init_weights(const ModelSpec& model, util::Prng& prng);

/// Convenience: init from a bare seed.
ModelWeights init_weights(const ModelSpec& model, std::uint64_t seed);

}  // namespace gnnerator::gnn
