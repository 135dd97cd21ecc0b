#include "gnn/layers.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace gnnerator::gnn {

std::string_view layer_kind_name(LayerKind kind) {
  switch (kind) {
    case LayerKind::kGcn:
      return "gcn";
    case LayerKind::kSageMean:
      return "gsage";
    case LayerKind::kSagePool:
      return "gsage-max";
  }
  return "unknown";
}

std::string_view aggregate_op_name(AggregateOp op) {
  switch (op) {
    case AggregateOp::kSum:
      return "sum";
    case AggregateOp::kMean:
      return "mean";
    case AggregateOp::kMax:
      return "max";
    case AggregateOp::kGcnNorm:
      return "gcn-norm";
  }
  return "unknown";
}

float apply_activation(Activation act, float x) {
  switch (act) {
    case Activation::kNone:
      return x;
    case Activation::kRelu:
      return x > 0.0f ? x : 0.0f;
  }
  return x;
}

std::size_t ModelSpec::input_dim() const {
  GNNERATOR_CHECK(!layers.empty());
  return layers.front().in_dim;
}

namespace {

ModelSpec stack(std::string name, LayerKind kind, std::size_t in_dim, std::size_t hidden_dim,
                std::size_t out_dim, std::size_t hidden_layers) {
  GNNERATOR_CHECK(hidden_layers >= 1);
  ModelSpec model;
  model.name = std::move(name);
  std::size_t current = in_dim;
  for (std::size_t i = 0; i < hidden_layers; ++i) {
    model.layers.push_back(LayerSpec{kind, current, hidden_dim, Activation::kRelu});
    current = hidden_dim;
  }
  // Final (classification) layer: no nonlinearity; logits feed a softmax
  // that is off the accelerator's critical path.
  model.layers.push_back(LayerSpec{kind, current, out_dim, Activation::kNone});
  validate_model(model);
  return model;
}

}  // namespace

ModelSpec ModelSpec::gcn(std::size_t in_dim, std::size_t hidden_dim, std::size_t out_dim,
                         std::size_t hidden_layers) {
  return stack("gcn", LayerKind::kGcn, in_dim, hidden_dim, out_dim, hidden_layers);
}

ModelSpec ModelSpec::graphsage(std::size_t in_dim, std::size_t hidden_dim, std::size_t out_dim,
                               std::size_t hidden_layers) {
  return stack("gsage", LayerKind::kSageMean, in_dim, hidden_dim, out_dim, hidden_layers);
}

ModelSpec ModelSpec::graphsage_pool(std::size_t in_dim, std::size_t hidden_dim,
                                    std::size_t out_dim, std::size_t hidden_layers) {
  return stack("gsage-max", LayerKind::kSagePool, in_dim, hidden_dim, out_dim, hidden_layers);
}

std::vector<StageSpec> layer_stages(const LayerSpec& layer) {
  std::vector<StageSpec> stages;
  switch (layer.kind) {
    case LayerKind::kGcn: {
      StageSpec agg;
      agg.kind = StageSpec::Kind::kAggregate;
      agg.input = StageSpec::Input::kLayerInput;
      agg.op = AggregateOp::kGcnNorm;
      agg.dims = layer.in_dim;
      stages.push_back(agg);

      StageSpec dense;
      dense.kind = StageSpec::Kind::kDense;
      dense.input = StageSpec::Input::kPrevStage;
      dense.in_dim = layer.in_dim;
      dense.out_dim = layer.out_dim;
      dense.activation = layer.activation;
      dense.weight_index = 0;
      stages.push_back(dense);
      break;
    }
    case LayerKind::kSageMean: {
      StageSpec agg;
      agg.kind = StageSpec::Kind::kAggregate;
      agg.input = StageSpec::Input::kLayerInput;
      agg.op = AggregateOp::kMean;
      agg.dims = layer.in_dim;
      stages.push_back(agg);

      StageSpec dense;
      dense.kind = StageSpec::Kind::kDense;
      dense.input = StageSpec::Input::kPrevStage;
      dense.in_dim = 2 * layer.in_dim;  // [z̄ ‖ h]
      dense.out_dim = layer.out_dim;
      dense.activation = layer.activation;
      dense.concat_layer_input = true;
      dense.weight_index = 0;
      stages.push_back(dense);
      break;
    }
    case LayerKind::kSagePool: {
      // Pool transform Wp: D_in -> D_out with ReLU (the Dense Engine is the
      // producer). The pool width equals the layer output width: the paper's
      // per-benchmark GPU speedups (28-37x on cora/citeseer gsage-max vs
      // 4-6x for gsage-mean) are only reachable when the pooled features are
      // narrow — a D_in x D_in pool transform would make gsage-max
      // GEMM-bound and erase those gaps. See DESIGN.md §2.
      StageSpec pool;
      pool.kind = StageSpec::Kind::kDense;
      pool.input = StageSpec::Input::kLayerInput;
      pool.in_dim = layer.in_dim;
      pool.out_dim = layer.out_dim;
      pool.activation = Activation::kRelu;
      pool.weight_index = 0;
      stages.push_back(pool);

      StageSpec agg;
      agg.kind = StageSpec::Kind::kAggregate;
      agg.input = StageSpec::Input::kPrevStage;
      agg.op = AggregateOp::kMax;
      agg.dims = layer.out_dim;
      stages.push_back(agg);

      StageSpec dense;
      dense.kind = StageSpec::Kind::kDense;
      dense.input = StageSpec::Input::kPrevStage;
      dense.in_dim = layer.out_dim + layer.in_dim;  // [z̄ ‖ h]
      dense.out_dim = layer.out_dim;
      dense.activation = layer.activation;
      dense.concat_layer_input = true;
      dense.weight_index = 1;
      stages.push_back(dense);
      break;
    }
  }
  return stages;
}

std::vector<WeightShape> layer_weight_shapes(const LayerSpec& layer) {
  std::vector<WeightShape> shapes;
  for (const StageSpec& stage : layer_stages(layer)) {
    if (stage.kind != StageSpec::Kind::kDense) {
      continue;
    }
    const std::size_t index = stage.weight_index;
    if (shapes.size() <= index) {
      shapes.resize(index + 1);
    }
    shapes[index] = WeightShape{stage.in_dim, stage.out_dim};
  }
  return shapes;
}

bool is_dense_first(const LayerSpec& layer) {
  const auto stages = layer_stages(layer);
  GNNERATOR_CHECK(!stages.empty());
  return stages.front().kind == StageSpec::Kind::kDense;
}

float aggregation_edge_coeff(AggregateOp op, std::size_t deg_src, std::size_t deg_dst) {
  switch (op) {
    case AggregateOp::kSum:
    case AggregateOp::kMax:
      return 1.0f;
    case AggregateOp::kMean:
      return 1.0f / (static_cast<float>(deg_dst) + 1.0f);
    case AggregateOp::kGcnNorm:
      return 1.0f / std::sqrt((static_cast<float>(deg_dst) + 1.0f) *
                              (static_cast<float>(deg_src) + 1.0f));
  }
  return 1.0f;
}

void validate_model(const ModelSpec& model) {
  GNNERATOR_CHECK_MSG(!model.layers.empty(), "model '" << model.name << "' has no layers");
  for (std::size_t i = 0; i < model.layers.size(); ++i) {
    const LayerSpec& layer = model.layers[i];
    GNNERATOR_CHECK_MSG(layer.in_dim > 0 && layer.out_dim > 0,
                        "layer " << i << " of '" << model.name << "' has zero dims");
    if (i > 0) {
      GNNERATOR_CHECK_MSG(model.layers[i - 1].out_dim == layer.in_dim,
                          "layer " << i << " in_dim " << layer.in_dim
                                   << " != previous out_dim " << model.layers[i - 1].out_dim);
    }
  }
}

}  // namespace gnnerator::gnn
