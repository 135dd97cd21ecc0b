#include "gnn/weights.hpp"

#include <cmath>

#include "util/check.hpp"

namespace gnnerator::gnn {

const Tensor& ModelWeights::weight(std::size_t layer, std::size_t index) const {
  GNNERATOR_CHECK_MSG(layer < layers.size(), "layer " << layer << " out of range");
  GNNERATOR_CHECK_MSG(index < layers[layer].size(),
                      "weight " << index << " out of range for layer " << layer);
  return layers[layer][index];
}

ModelWeights init_weights(const ModelSpec& model, util::Prng& prng) {
  validate_model(model);
  ModelWeights weights;
  weights.layers.reserve(model.layers.size());
  for (const LayerSpec& layer : model.layers) {
    std::vector<Tensor> tensors;
    for (const WeightShape& shape : layer_weight_shapes(layer)) {
      Tensor w(shape.rows, shape.cols);
      const double bound =
          std::sqrt(6.0 / static_cast<double>(shape.rows + shape.cols));
      for (std::size_t r = 0; r < shape.rows; ++r) {
        for (std::size_t c = 0; c < shape.cols; ++c) {
          w.at(r, c) = static_cast<float>(prng.uniform(-bound, bound));
        }
      }
      tensors.push_back(std::move(w));
    }
    weights.layers.push_back(std::move(tensors));
  }
  return weights;
}

ModelWeights init_weights(const ModelSpec& model, std::uint64_t seed) {
  util::Prng prng(seed ^ 0x57656967687473ULL);  // "Weights"
  return init_weights(model, prng);
}

}  // namespace gnnerator::gnn
