// Tests for the baseline models: the GPU roofline (RTX 2080 Ti), the
// HyGCN-style accelerator model, and the paper ledger built on both.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "baseline/gpu_model.hpp"
#include "baseline/hygcn_model.hpp"
#include "baseline/paper_ledger.hpp"
#include "core/engine.hpp"
#include "core/gnnerator.hpp"
#include "graph/datasets.hpp"
#include "graph/generate.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"

namespace gnnerator::baseline {
namespace {

graph::DatasetSpec cora_spec() { return *graph::find_dataset("cora"); }

// ------------------------------------------------------------------- gpu --
TEST(GpuModel, UtilizationBoundedAndMonotonic) {
  const GpuModel gpu;
  EXPECT_GT(gpu.gemm_utilization(16, 4), 0.0);
  EXPECT_LE(gpu.gemm_utilization(1 << 20, 1 << 20), gpu.config().gemm_base_util + 1e-12);
  // Wider N improves utilization.
  EXPECT_LT(gpu.gemm_utilization(4096, 16), gpu.gemm_utilization(4096, 512));
}

TEST(GpuModel, GatherEfficiencyGrowsWithWidth) {
  const GpuModel gpu;
  EXPECT_LT(gpu.gather_efficiency(16), gpu.gather_efficiency(500));
  EXPECT_LE(gpu.gather_efficiency(500), gpu.gather_efficiency(4000));
  EXPECT_LE(gpu.gather_efficiency(100000), gpu.config().gather_eff_max);
  EXPECT_GE(gpu.gather_efficiency(1), gpu.config().gather_eff_base);
}

TEST(GpuModel, GemmTimeScalesWithWork) {
  const GpuModel gpu;
  EXPECT_LT(gpu.gemm_time_s(1000, 100, 16), gpu.gemm_time_s(1000, 1000, 16));
  EXPECT_LT(gpu.gemm_time_s(1000, 100, 16), gpu.gemm_time_s(10000, 100, 16));
}

TEST(GpuModel, TinyKernelsDominatedByOverhead) {
  const GpuModel gpu;
  const double tiny = gpu.gemm_time_s(10, 10, 10);
  EXPECT_NEAR(tiny, gpu.config().gemm_overhead_s, gpu.config().gemm_overhead_s * 0.1);
}

TEST(GpuModel, MaterializedMaxAggregationCostsMore) {
  const GpuModel gpu;
  EXPECT_GT(gpu.aggregate_time_s(3000, 12000, 512, true),
            gpu.aggregate_time_s(3000, 12000, 512, false));
}

TEST(GpuModel, BreakdownSumsToTotal) {
  const GpuModel gpu;
  const auto model = core::table3_model(gnn::LayerKind::kSagePool, cora_spec());
  const auto stages = gpu.breakdown(model, cora_spec());
  double sum = 0.0;
  for (const auto& s : stages) {
    EXPECT_GT(s.seconds, 0.0);
    sum += s.seconds;
  }
  EXPECT_NEAR(sum, gpu.model_time_s(model, cora_spec()), 1e-12);
  // SagePool: 3 stages per layer x 2 layers.
  EXPECT_EQ(stages.size(), 6u);
}

TEST(GpuModel, PoolPathSlowerThanMeanPath) {
  // DGL's pool aggregator (wide fc_pool + edge materialisation) costs more
  // than the mean aggregator on the same dataset.
  const GpuModel gpu;
  const auto pool = core::table3_model(gnn::LayerKind::kSagePool, cora_spec());
  const auto mean = core::table3_model(gnn::LayerKind::kSageMean, cora_spec());
  EXPECT_GT(gpu.model_time_s(pool, cora_spec()), gpu.model_time_s(mean, cora_spec()));
}

// ----------------------------------------------------------------- hygcn --
graph::Graph small_graph() {
  util::Prng prng(5);
  return graph::symmetrized(graph::power_law(300, 1800, 1.8, prng));
}

TEST(HygcnModel, LayerCyclesPositiveAndComposed) {
  const HygcnModel hygcn;
  const auto g = small_graph();
  const gnn::LayerSpec layer{gnn::LayerKind::kGcn, 128, 16, gnn::Activation::kRelu};
  const auto cycles = hygcn.layer_cycles(g, layer);
  EXPECT_GT(cycles.aggregation_dma, 0u);
  EXPECT_GT(cycles.aggregation_compute, 0u);
  EXPECT_GT(cycles.combination, 0u);
  // Pipelined total = max of the overlapping parts.
  EXPECT_EQ(cycles.total, std::max({cycles.aggregation_dma, cycles.aggregation_compute,
                                    cycles.combination}));
}

TEST(HygcnModel, SparsityEliminationReducesTraffic) {
  HygcnConfig with;
  with.sparsity_elimination = true;
  // Shrink the window so elimination matters even on a small test graph.
  with.buffer_bytes = 256 * 1024;
  HygcnConfig without = with;
  without.sparsity_elimination = false;
  const auto g = small_graph();
  const gnn::LayerSpec layer{gnn::LayerKind::kGcn, 128, 16, gnn::Activation::kRelu};
  const auto dma_with = HygcnModel(with).layer_cycles(g, layer).aggregation_dma;
  const auto dma_without = HygcnModel(without).layer_cycles(g, layer).aggregation_dma;
  EXPECT_LT(dma_with, dma_without);
}

TEST(HygcnModel, SagePoolStagesSerialize) {
  // Dense-first networks cannot pipeline on HyGCN: the total is a sum of
  // stage maxima, strictly greater than any single component.
  const HygcnModel hygcn;
  const auto g = small_graph();
  const gnn::LayerSpec layer{gnn::LayerKind::kSagePool, 128, 16, gnn::Activation::kRelu};
  const auto cycles = hygcn.layer_cycles(g, layer);
  EXPECT_GT(cycles.total, cycles.aggregation_dma);
  EXPECT_GT(cycles.total, cycles.combination / 2);
}

TEST(HygcnModel, ModelCyclesSumLayers) {
  const HygcnModel hygcn;
  const auto g = small_graph();
  const auto model = gnn::ModelSpec::gcn(128, 16, 7);
  std::uint64_t expected = 0;
  for (const auto& layer : model.layers) {
    expected += hygcn.layer_cycles(g, layer).total;
  }
  EXPECT_EQ(hygcn.simulate_cycles(g, model), expected);
}

TEST(HygcnModel, MillisecondConversion) {
  const HygcnModel hygcn;
  EXPECT_DOUBLE_EQ(hygcn.milliseconds(1'000'000), 1.0);  // 1 GHz
}

// ---------------------------------------------------------- paper ledger --
constexpr gnn::LayerKind kKinds[] = {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean,
                                     gnn::LayerKind::kSagePool};
constexpr const char* kDatasets[] = {"cora", "citeseer", "pubmed"};
constexpr std::size_t kFig5Hidden[] = {16, 128, 1024};

/// Every paper_points() request simulated once through one engine, and the
/// ledger over their cycles; shared by the tests below.
struct LedgerRun {
  LedgerRun() {
    for (const char* name : kDatasets) {
      engine.add_dataset(graph::make_dataset_by_name(name, 1, false));
    }
    for (const PaperPoint& point : paper_points()) {
      cycles[point.label] = engine.run(point.request).cycles;
    }
    ledger = paper_ledger(cycles, lookup());
  }

  [[nodiscard]] DatasetLookup lookup() const {
    return [this](const std::string& name) -> const graph::Dataset& {
      return engine.dataset(name);
    };
  }

  core::Engine engine{core::EngineOptions{.num_threads = 1}};
  std::map<std::string, std::uint64_t> cycles;
  PaperLedger ledger;
};

const LedgerRun& ledger_run() {
  static const LedgerRun run;
  return run;
}

TEST(PaperLedger, PointCyclesEqualDirectEngineRuns) {
  // Each row holds the cycles of the request its figure describes, built
  // here without paper_points() and run on a fresh engine.
  const LedgerRun& run = ledger_run();
  const PaperLedger& ledger = run.ledger;
  core::Engine engine(core::EngineOptions{.num_threads = 1});
  const HygcnModel hygcn;
  const core::AcceleratorConfig base = core::AcceleratorConfig::table4();
  const core::AcceleratorConfig variants[] = {base.with_double_graph_memory(),
                                              base.with_double_dense_compute(),
                                              base.with_double_bandwidth()};
  ASSERT_EQ(ledger.fig3.size(), 9u);
  ASSERT_EQ(ledger.table5.size(), 3u);
  ASSERT_EQ(ledger.fig5.size(), 9u);
  for (std::size_t d = 0; d < 3; ++d) {
    const graph::Dataset& ds = run.engine.dataset(kDatasets[d]);
    for (std::size_t k = 0; k < 3; ++k) {
      const Fig3Row& row = ledger.fig3[d * 3 + k];
      const gnn::ModelSpec model = core::table3_model(kKinds[k], ds.spec);
      core::SimulationRequest request;
      EXPECT_EQ(row.blocked.cycles, engine.run(ds, model, request).cycles) << row.name;
      request.dataflow.feature_blocking = false;
      EXPECT_EQ(row.unblocked.cycles, engine.run(ds, model, request).cycles) << row.name;
    }
    EXPECT_EQ(ledger.table5[d].dataset, kDatasets[d]);
    EXPECT_EQ(ledger.table5[d].hygcn_cycles,
              hygcn.simulate_cycles(ds.graph, core::table3_model(gnn::LayerKind::kGcn, ds.spec)));
  }
  for (std::size_t h = 0; h < 3; ++h) {
    for (std::size_t d = 0; d < 3; ++d) {
      const Fig5Row& row = ledger.fig5[h * 3 + d];
      const graph::Dataset& ds = run.engine.dataset(kDatasets[d]);
      const gnn::ModelSpec model =
          core::table3_model(gnn::LayerKind::kGcn, ds.spec, kFig5Hidden[h]);
      core::SimulationRequest request;
      request.dataflow.block_size = 64;
      EXPECT_EQ(row.base_cycles, engine.run(ds, model, request).cycles) << row.name;
      for (std::size_t v = 0; v < 3; ++v) {
        request.config = variants[v];
        EXPECT_EQ(row.variants[v].cycles, engine.run(ds, model, request).cycles)
            << row.name << " " << kFig5Variants[v];
      }
    }
  }
  EXPECT_EQ(ledger.fig3.back().name, "pub-gsage-max");
  EXPECT_EQ(ledger.fig5.back().name, "Pubmed-1024");
}

TEST(PaperLedger, GeomeansEqualGeomeanOfPerPointRatios) {
  const PaperLedger& ledger = ledger_run().ledger;
  const GpuModel gpu;
  std::vector<double> blocked;
  std::vector<double> unblocked;
  for (std::size_t i = 0; i < ledger.fig3.size(); ++i) {
    const Fig3Row& row = ledger.fig3[i];
    const graph::DatasetSpec spec = *graph::find_dataset(kDatasets[i / 3]);
    const double gpu_ms = gpu.model_time_s(core::table3_model(kKinds[i % 3], spec), spec) * 1e3;
    EXPECT_DOUBLE_EQ(row.blocked.speedup, gpu_ms / (row.blocked.cycles / 1e6)) << row.name;
    EXPECT_DOUBLE_EQ(row.unblocked.speedup, gpu_ms / (row.unblocked.cycles / 1e6)) << row.name;
    blocked.push_back(row.blocked.speedup);
    unblocked.push_back(row.unblocked.speedup);
  }
  EXPECT_EQ(ledger.fig3_gmean_blocked, util::geomean(blocked));
  EXPECT_EQ(ledger.fig3_gmean_unblocked, util::geomean(unblocked));

  for (std::size_t v = 0; v < kFig5Variants.size(); ++v) {
    std::vector<double> speedups;
    for (const Fig5Row& row : ledger.fig5) {
      EXPECT_DOUBLE_EQ(row.variants[v].speedup,
                       static_cast<double>(row.base_cycles) / row.variants[v].cycles)
          << row.name << " " << kFig5Variants[v];
      speedups.push_back(row.variants[v].speedup);
    }
    EXPECT_EQ(ledger.fig5_gmean[v], util::geomean(speedups)) << kFig5Variants[v];
  }

  // Table V divides HyGCN's time by the Fig. 3 GCN rows' times.
  const HygcnModel hygcn;
  for (std::size_t d = 0; d < ledger.table5.size(); ++d) {
    const Table5Column& column = ledger.table5[d];
    const double hygcn_ms = hygcn.milliseconds(column.hygcn_cycles);
    EXPECT_DOUBLE_EQ(column.speedup_blocked, hygcn_ms / ledger.fig3[d * 3].blocked.ms);
    EXPECT_DOUBLE_EQ(column.speedup_unblocked, hygcn_ms / ledger.fig3[d * 3].unblocked.ms);
  }
}

TEST(PaperLedger, ClaimsNameEveryHeadlineNumber) {
  // The names are gnnbench's fidelity metrics without "fidelity.".
  const PaperLedger& ledger = ledger_run().ledger;
  std::map<std::string, double> measured;
  for (const PaperClaim& claim : ledger.claims()) {
    EXPECT_GT(claim.paper, 0.0) << claim.name;
    measured[claim.name] = claim.measured;
  }
  ASSERT_EQ(measured.size(), 11u);
  EXPECT_EQ(measured.at("fig3_gmean_blocked"), ledger.fig3_gmean_blocked);
  EXPECT_EQ(measured.at("fig3_gmean_unblocked"), ledger.fig3_gmean_unblocked);
  EXPECT_EQ(measured.at("table5.citeseer.blocked"), ledger.table5[1].speedup_blocked);
  EXPECT_EQ(measured.at("table5.pubmed.unblocked"), ledger.table5[2].speedup_unblocked);
  EXPECT_EQ(measured.at("fig5_gmean.2x-bw"), ledger.fig5_gmean[2]);
}

TEST(PaperLedger, MissingPointThrows) {
  const LedgerRun& run = ledger_run();
  std::map<std::string, std::uint64_t> cycles = run.cycles;
  cycles.erase("fig5/pubmed-1024/2x-bw");
  EXPECT_THROW((void)paper_ledger(cycles, run.lookup()), util::CheckError);
}

// --------------------------------------------------- paper-shape checks --
TEST(PaperShape, BlockedGnneratorBeatsHygcnOnGcn) {
  // Table V's headline: with feature blocking GNNerator outperforms HyGCN
  // on GCN across the Table II datasets (paper: 2.3-3.8x).
  for (const Table5Column& column : ledger_run().ledger.table5) {
    EXPECT_GT(column.speedup_blocked, 1.5)
        << column.dataset << ": blocked GNNerator should clearly beat HyGCN";
    EXPECT_LT(column.speedup_blocked, 8.0) << column.dataset << ": but not implausibly so";
  }
}

TEST(PaperShape, GnneratorBeatsGpuOnEverySuitePoint) {
  // Fig. 3: every blocked benchmark point is at least as fast as the GPU.
  for (const Fig3Row& row : ledger_run().ledger.fig3) {
    EXPECT_GT(row.blocked.speedup, 1.0) << row.name << " should beat the GPU";
  }
}

}  // namespace
}  // namespace gnnerator::baseline
