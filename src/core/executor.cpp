#include "core/executor.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "util/check.hpp"

namespace gnnerator::core {

namespace {

/// The work of one (layer, stage) output tensor: GEMM ops in program order,
/// or aggregation tasks, one per shard visit.
struct Phase {
  std::vector<const GemmWork*> gemms;
  std::vector<AggWork> aggs;
};

/// Bands per pool thread: more bands than threads evens out bands of
/// unequal cost (hub destinations, partial row tiles).
constexpr std::size_t kBandsPerThread = 4;

void run_phase(RuntimeState& state, const Phase& phase, RowBand band) {
  for (const GemmWork* op : phase.gemms) {
    state.run_gemm(*op, band);
  }
  for (const AggWork& task : phase.aggs) {
    state.run_agg(task, band);
  }
}

/// Merges an aggregation phase's tasks (program order) into one task per
/// shard visit that spans every feature block, [0, dims), where dims is the
/// accumulator's width. Feature blocks exist because the Graph Engine's
/// scratchpad cannot hold a whole feature row; the host can, so it walks
/// each shard's edges once, not once per block. Every element keeps its
/// start value and its terms in order, because every block visits the same
/// shards in the same order with the same init_accumulator flags. Throws
/// CheckError, naming the stage, when that fails, when the blocks do not
/// tile [0, dims), or when a column is not initialised on its first visit.
std::vector<AggWork> merge_feature_blocks(const LoweredModel& plan,
                                          const std::vector<AggWork>& tasks, std::size_t dims) {
  const std::uint32_t stage_index = tasks.front().agg_stage;
  const AggStagePlan& stage = plan.agg_stages[stage_index];
  const auto where = [&] {
    std::ostringstream os;
    os << "aggregation stage " << stage_index << " (L" << stage.output.layer << ".S"
       << stage.output.stage << ")";
    return os.str();
  };
  GNNERATOR_CHECK_MSG(stage.grid != nullptr, where() << " has no grid");

  // Each feature block's shard visits, in program order.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<const AggWork*>> blocks;
  for (const AggWork& task : tasks) {
    GNNERATOR_CHECK_MSG(task.agg_stage == stage_index,
                        where() << " shares its output with aggregation stage " << task.agg_stage);
    blocks[{task.d_begin, task.d_end}].push_back(&task);
  }

  const auto& [first_block, visits] = *blocks.begin();
  std::uint32_t next_column = 0;
  for (const auto& [block, block_visits] : blocks) {
    GNNERATOR_CHECK_MSG(block.first == next_column,
                        where() << ": feature block [" << block.first << ", " << block.second
                                << ") does not start where the blocks before it end, at "
                                << next_column);
    const bool same_visits = std::equal(
        block_visits.begin(), block_visits.end(), visits.begin(), visits.end(),
        [](const AggWork* a, const AggWork* b) {
          return a->coord == b->coord && a->init_accumulator == b->init_accumulator;
        });
    GNNERATOR_CHECK_MSG(same_visits, where() << ": feature block [" << block.first << ", "
                                             << block.second
                                             << ") does not visit the shards of block ["
                                             << first_block.first << ", " << first_block.second
                                             << ") in the same order with the same "
                                                "init_accumulator flags");
    next_column = block.second;
  }
  GNNERATOR_CHECK_MSG(next_column == dims, where() << ": feature blocks end at column "
                                                   << next_column << ", not at the accumulator "
                                                   << "width " << dims);

  std::vector<bool> initialised(stage.grid->dim(), false);
  std::vector<AggWork> merged;
  merged.reserve(visits.size());
  for (const AggWork* visit : visits) {
    GNNERATOR_CHECK_MSG(visit->coord.row < initialised.size() &&
                            visit->coord.col < initialised.size(),
                        where() << ": shard (" << visit->coord.row << ", " << visit->coord.col
                                << ") lies outside its " << initialised.size() << " x "
                                << initialised.size() << " grid");
    GNNERATOR_CHECK_MSG(initialised[visit->coord.col] || visit->init_accumulator,
                        where() << ": shard (" << visit->coord.row << ", " << visit->coord.col
                                << ") is the first visit of its column but does not "
                                   "initialise it");
    initialised[visit->coord.col] = true;
    merged.push_back(*visit);
    merged.back().d_begin = 0;
    merged.back().d_end = next_column;
  }
  GNNERATOR_CHECK_MSG(std::ranges::all_of(initialised, [](bool b) { return b; }),
                      where() << " leaves a column of its grid unvisited");
  return merged;
}

}  // namespace

void FunctionalExecutor::execute(const LoweredModel& plan, RuntimeState& state) const {
  // Group work by output tensor; (layer, stage) order is dependency order —
  // every stage reads only earlier stages' outputs (or the layer input).
  std::map<std::pair<std::uint32_t, std::int32_t>, Phase> phases;
  for (const GemmWork& op : plan.dense_program) {
    phases[{op.out.layer, op.out.stage}].gemms.push_back(&op);
  }
  for (const AggWork& task : plan.graph_program) {
    GNNERATOR_CHECK_MSG(task.agg_stage < plan.agg_stages.size(),
                        "aggregation task " << task.tag << " names stage " << task.agg_stage
                                            << " of " << plan.agg_stages.size());
    const TensorRef out = plan.agg_stages[task.agg_stage].output;
    phases[{out.layer, out.stage}].aggs.push_back(task);
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

  for (auto& [key, phase] : phases) {
    // A stage is either dense or aggregate — a phase never mixes programs
    // (mixing would leave the relative order of the two programs undefined).
    GNNERATOR_CHECK(phase.gemms.empty() != phase.aggs.empty());
    if (!phase.aggs.empty()) {
      const TensorRef out{key.first, key.second};
      phase.aggs = merge_feature_blocks(plan, phase.aggs, state.tensor(out).cols);
    }

    if (parallelism == 1) {
      run_phase(state, phase, RowBand{});
      continue;
    }
    std::vector<std::function<void()>> tasks;
    tasks.reserve(bands.size());
    for (const RowBand band : bands) {
      tasks.emplace_back([&state, &phase, band] { run_phase(state, phase, band); });
    }
    pool_->run_all(tasks);
  }
}

}  // namespace gnnerator::core
