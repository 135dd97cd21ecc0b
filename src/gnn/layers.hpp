#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace gnnerator::gnn {

/// The three network families of Table III.
enum class LayerKind {
  kGcn,       ///< GCN [Kipf & Welling]: h' = relu(W · gcn_norm_agg(h))
  kSageMean,  ///< GraphSAGE, Eq. (1): h' = relu(W · [mean_agg(h) ‖ h])
  kSagePool,  ///< GraphSAGE-pool, Eq. (2): z = relu(Wp·h); h' = relu(W · [max_agg(z) ‖ h])
};

[[nodiscard]] std::string_view layer_kind_name(LayerKind kind);

/// Aggregation operator executed by the Graph Engine's Apply/Reduce units.
/// Apply performs the per-edge binary op (scaling by the edge coefficient),
/// Reduce folds into the destination accumulator (sum or max).
enum class AggregateOp {
  kSum,      ///< plain sum over N(u) ∪ u
  kMean,     ///< sum over N(u) ∪ u scaled by 1/(|N(u)|+1)
  kMax,      ///< elementwise max over N(u) ∪ u
  kGcnNorm,  ///< Σ h_v / sqrt((d_u+1)(d_v+1)) + h_u/(d_u+1)  (renormalised GCN)
};

[[nodiscard]] std::string_view aggregate_op_name(AggregateOp op);

/// Pointwise nonlinearity applied by the Dense Engine's activation unit.
enum class Activation { kNone, kRelu };

[[nodiscard]] float apply_activation(Activation act, float x);

/// One GNN layer as the user declares it.
struct LayerSpec {
  LayerKind kind = LayerKind::kGcn;
  std::size_t in_dim = 0;
  std::size_t out_dim = 0;
  Activation activation = Activation::kRelu;
};

/// A full network: a stack of layers (paper Table III: one hidden layer of
/// dimension 16 means two LayerSpecs, in_dim -> 16 -> num_classes).
struct ModelSpec {
  std::string name;
  std::vector<LayerSpec> layers;

  [[nodiscard]] std::size_t input_dim() const;

  /// Factory helpers for the Table III configurations. `hidden_layers` is
  /// the number of hidden layers (1 in the paper).
  static ModelSpec gcn(std::size_t in_dim, std::size_t hidden_dim, std::size_t out_dim,
                       std::size_t hidden_layers = 1);
  static ModelSpec graphsage(std::size_t in_dim, std::size_t hidden_dim, std::size_t out_dim,
                             std::size_t hidden_layers = 1);
  static ModelSpec graphsage_pool(std::size_t in_dim, std::size_t hidden_dim, std::size_t out_dim,
                                  std::size_t hidden_layers = 1);
};

/// === Stage decomposition ===================================================
/// Every layer lowers to an ordered pipeline of Dense and Aggregate stages;
/// both the reference executor and the accelerator compiler consume this
/// decomposition so that "what a layer means" is defined exactly once.
///
///   GCN:       Aggregate(h, GcnNorm) -> Dense(W: D_in x D_out)
///   SageMean:  Aggregate(h, Mean)    -> Dense(W: 2D_in x D_out, concat h)
///   SagePool:  Dense(Wp: D_in x D_out) -> Aggregate(z, Max)
///                                       -> Dense(W: (D_out+D_in) x D_out, concat h)
///
/// The order of the first two stages is what the paper calls "graph first"
/// vs "dense first" (§III-C): SagePool's Dense Engine is the *producer* for
/// the Graph Engine.
struct StageSpec {
  enum class Kind { kDense, kAggregate };
  /// Where the stage reads its primary input from.
  enum class Input { kLayerInput, kPrevStage };

  Kind kind = Kind::kDense;
  Input input = Input::kLayerInput;

  // Dense stages.
  std::size_t in_dim = 0;   ///< total GEMM input dim (includes concat part)
  std::size_t out_dim = 0;
  Activation activation = Activation::kNone;
  /// If true, the GEMM input is [primary ‖ layer input] (Eq. 1's z̄ ∪ h);
  /// in_dim then counts both halves.
  bool concat_layer_input = false;
  /// Index into the layer's weight list.
  std::size_t weight_index = 0;

  // Aggregate stages.
  AggregateOp op = AggregateOp::kSum;
  std::size_t dims = 0;  ///< feature dimensionality being aggregated
};

/// Lowers a layer to its stage pipeline.
[[nodiscard]] std::vector<StageSpec> layer_stages(const LayerSpec& layer);

/// Shapes of the weight matrices a layer needs, in weight_index order.
struct WeightShape {
  std::size_t rows = 0;  // input dim
  std::size_t cols = 0;  // output dim
};
[[nodiscard]] std::vector<WeightShape> layer_weight_shapes(const LayerSpec& layer);

/// True if the first stage of the layer is a Dense stage (the Dense Engine
/// is the producer — the paper's "dense first" case).
[[nodiscard]] bool is_dense_first(const LayerSpec& layer);

/// Validates dims (> 0) and intra-model dimension chaining; throws
/// CheckError with a description on failure.
void validate_model(const ModelSpec& model);

/// Per-edge scale used by the Graph Engine's Apply Unit for edge
/// (src -> dst). Degrees EXCLUDE the self loop; the self contribution of
/// node u is the coefficient of the synthetic edge (u, u) with
/// deg_src = deg_dst = d_u, which reproduces the 1/(d_u+1) self terms of
/// both the mean and the renormalised-GCN aggregators.
[[nodiscard]] float aggregation_edge_coeff(AggregateOp op, std::size_t deg_src,
                                           std::size_t deg_dst);

}  // namespace gnnerator::gnn
