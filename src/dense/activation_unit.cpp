#include "dense/activation_unit.hpp"

namespace gnnerator::dense {

void ActivationUnit::apply(gnn::Activation act, std::span<float> values) {
  if (act == gnn::Activation::kNone) {
    return;
  }
  for (float& x : values) {
    x = gnn::apply_activation(act, x);
  }
  ops_ += values.size();
}

}  // namespace gnnerator::dense
