#include "shard/cost_model.hpp"

#include "util/check.hpp"

namespace gnnerator::shard {

ShardCost analytic_shard_cost(std::uint32_t grid_dim, double input_residency, Traversal t) {
  const ShardCostBreakdown b = shard_cost_breakdown(grid_dim, input_residency, t);
  return ShardCost{b.reads(), b.writes()};
}

ShardCostBreakdown shard_cost_breakdown(std::uint32_t grid_dim, double input_residency,
                                        Traversal t) {
  GNNERATOR_CHECK(grid_dim > 0);
  GNNERATOR_CHECK(input_residency >= 0.0);
  const auto S = static_cast<double>(grid_dim);
  const double I = input_residency;
  ShardCostBreakdown cost;
  switch (t) {
    case Traversal::kSourceStationary:
      // Table I reads S*I + (S-1)*S - S + 1 split as: one source interval
      // per row (I-scaled) plus (S-1)^2 partial-accumulator reloads; the
      // S^2 - S + 1 writes are those partials spilled again plus the S
      // column finals.
      cost.src_reads = S * I;
      cost.partial_reloads = (S - 1.0) * (S - 1.0);
      cost.partial_writes = (S - 1.0) * (S - 1.0);
      cost.final_writes = S;
      break;
    case Traversal::kDestStationary:
      cost.src_reads = (S * S - S + 1.0) * I;
      cost.final_writes = S;
      break;
  }
  return cost;
}

Traversal choose_traversal(std::uint32_t grid_dim, double input_residency, double write_weight) {
  const double src =
      analytic_shard_cost(grid_dim, input_residency, Traversal::kSourceStationary)
          .total(write_weight);
  const double dst =
      analytic_shard_cost(grid_dim, input_residency, Traversal::kDestStationary)
          .total(write_weight);
  return dst <= src ? Traversal::kDestStationary : Traversal::kSourceStationary;
}

}  // namespace gnnerator::shard
