#include "core/executor.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "util/check.hpp"

namespace gnnerator::core {

namespace {

/// One plan work item, tagged with which program it came from. Items keep
/// their program order inside a phase.
struct Item {
  bool is_gemm = false;
  std::uint32_t index = 0;
};

/// Bands per pool thread: more bands than threads evens out bands of
/// unequal cost (hub destinations, partial row tiles).
constexpr std::size_t kBandsPerThread = 4;

void run_items(RuntimeState& state, const LoweredModel& plan, const std::vector<Item>& items,
               RowBand band) {
  for (const Item& item : items) {
    if (item.is_gemm) {
      state.run_gemm(plan.dense_program[item.index], band);
    } else {
      state.run_agg(plan.graph_program[item.index], band);
    }
  }
}

}  // namespace

void FunctionalExecutor::execute(const LoweredModel& plan, RuntimeState& state) const {
  // Group work by output tensor; (layer, stage) order is dependency order —
  // every stage reads only earlier stages' outputs (or the layer input).
  std::map<std::pair<std::uint32_t, std::int32_t>, std::vector<Item>> phases;
  for (std::uint32_t i = 0; i < plan.dense_program.size(); ++i) {
    const TensorRef out = plan.dense_program[i].out;
    phases[{out.layer, out.stage}].push_back(Item{true, i});
  }
  for (std::uint32_t i = 0; i < plan.graph_program.size(); ++i) {
    const AggWork& task = plan.graph_program[i];
    GNNERATOR_CHECK_MSG(task.agg_stage < plan.agg_stages.size(),
                        "aggregation task " << task.tag << " names stage " << task.agg_stage
                                            << " of " << plan.agg_stages.size());
    const TensorRef out = plan.agg_stages[task.agg_stage].output;
    phases[{out.layer, out.stage}].push_back(Item{false, i});
  }

  const std::size_t parallelism = pool_ == nullptr ? 1 : pool_->parallelism();
  const std::size_t num_rows = plan.agg_graph->num_nodes();
  const std::size_t num_bands =
      parallelism == 1 ? 1 : std::min(num_rows, kBandsPerThread * parallelism);
  std::vector<RowBand> bands;
  bands.reserve(num_bands);
  for (std::size_t b = 0; b < num_bands; ++b) {
    bands.push_back(RowBand{static_cast<std::uint32_t>(num_rows * b / num_bands),
                            static_cast<std::uint32_t>(num_rows * (b + 1) / num_bands)});
  }

  for (const auto& [key, items] : phases) {
    // A stage is either dense or aggregate — a phase never mixes programs
    // (mixing would leave the relative order of the two programs undefined).
    GNNERATOR_CHECK(!items.empty());
    for (const Item& item : items) {
      GNNERATOR_CHECK(item.is_gemm == items.front().is_gemm);
    }

    if (parallelism == 1) {
      run_items(state, plan, items, RowBand{});
      continue;
    }
    std::vector<std::function<void()>> tasks;
    tasks.reserve(bands.size());
    for (const RowBand band : bands) {
      tasks.emplace_back([&state, &plan, &items, band] { run_items(state, plan, items, band); });
    }
    pool_->run_all(tasks);
  }
}

}  // namespace gnnerator::core
