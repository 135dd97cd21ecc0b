// Differential tests for the event-driven time-skipping kernel: run() must
// produce bitwise-identical cycle counts, statistics and trace events to
// run_reference() on every configuration the integration suite exercises,
// plus targeted unit coverage for each component's next_event contract
// (DRAM round-robin epochs, systolic drain, controller-token barriers).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/gnnerator.hpp"
#include "dense/dense_engine.hpp"
#include "gengine/graph_engine.hpp"
#include "graph/sample.hpp"
#include "mem/dram.hpp"
#include "sim/kernel.hpp"
#include "sim/sync.hpp"
#include "sim/trace.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace gnnerator {
namespace {

using core::SimulationRequest;
using core::TimingKernel;
using sim::Cycle;

const graph::Dataset& dataset(const std::string& name) {
  static std::map<std::string, graph::Dataset> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, graph::make_dataset_by_name(name, 1, false)).first;
  }
  return it->second;
}

/// Both kernels' traces hold the same events, in the same order.
void expect_same_trace(const std::string& label, const sim::Tracer& fast,
                       const sim::Tracer& slow) {
  ASSERT_FALSE(fast.truncated()) << label;
  const auto& a = fast.events();
  const auto& b = slow.events();
  EXPECT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i].cycle != b[i].cycle || a[i].component != b[i].component || a[i].what != b[i].what) {
      ADD_FAILURE() << label << ": event " << i << " is '" << a[i].cycle << ' ' << a[i].component
                    << ": " << a[i].what << "' under run() but '" << b[i].cycle << ' '
                    << b[i].component << ": " << b[i].what << "' under run_reference()";
      return;
    }
  }
}

void expect_identical(const std::string& label, const core::LoweredModel& plan) {
  sim::Tracer fast_trace;
  sim::Tracer slow_trace;
  fast_trace.enable();
  slow_trace.enable();
  const auto fast = core::Accelerator::run_timing(plan, &fast_trace, TimingKernel::kEventDriven);
  const auto slow = core::Accelerator::run_timing(plan, &slow_trace, TimingKernel::kReference);
  EXPECT_EQ(fast.cycles, slow.cycles) << label;
  EXPECT_EQ(fast.stats.counters(), slow.stats.counters()) << label;
  expect_same_trace(label, fast_trace, slow_trace);
  // The event-driven run must actually skip: these models are idle-wait
  // heavy (DRAM latency shadows, systolic drains).
  EXPECT_GT(fast.kernel_cycles_skipped, 0u) << label;
  EXPECT_EQ(fast.kernel_cycles_ticked + fast.kernel_cycles_skipped, fast.cycles) << label;
  EXPECT_EQ(slow.kernel_cycles_skipped, 0u) << label;
}

void expect_identical(const std::string& label, const SimulationRequest& request,
                      const std::string& ds, gnn::LayerKind kind, std::size_t hidden = 16) {
  const auto& d = dataset(ds);
  expect_identical(label, core::compile_for(d, core::table3_model(kind, d.spec, hidden), request));
}

// ----------------------------------------------------- integration matrix --

TEST(KernelSkip, MatchesReferenceAcrossDatasetsAndNetworks) {
  SimulationRequest blocked;
  SimulationRequest unblocked;
  unblocked.dataflow.feature_blocking = false;
  for (const char* ds : {"cora", "citeseer", "pubmed"}) {
    for (const gnn::LayerKind kind :
         {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
      const std::string name = std::string(ds) + "-" + std::string(gnn::layer_kind_name(kind));
      expect_identical(name + "/blocked", blocked, ds, kind);
      expect_identical(name + "/unblocked", unblocked, ds, kind);
    }
  }
}

TEST(KernelSkip, MatchesReferenceAcrossConfigVariants) {
  SimulationRequest bandwidth;
  bandwidth.config = core::AcceleratorConfig::table4().with_double_bandwidth();
  expect_identical("double-bandwidth", bandwidth, "citeseer", gnn::LayerKind::kGcn);

  SimulationRequest compute;
  compute.config = core::AcceleratorConfig::table4().with_double_dense_compute();
  expect_identical("double-dense", compute, "citeseer", gnn::LayerKind::kGcn, /*hidden=*/128);

  SimulationRequest src_stationary;
  src_stationary.dataflow.feature_blocking = false;
  src_stationary.dataflow.traversal = shard::Traversal::kSourceStationary;
  expect_identical("src-stationary", src_stationary, "cora", gnn::LayerKind::kGcn);

  SimulationRequest dst_stationary;
  dst_stationary.dataflow.feature_blocking = false;
  dst_stationary.dataflow.traversal = shard::Traversal::kDestStationary;
  expect_identical("dst-stationary", dst_stationary, "cora", gnn::LayerKind::kGcn);

  SimulationRequest small_block;
  small_block.dataflow.block_size = 32;
  expect_identical("block-32", small_block, "citeseer", gnn::LayerKind::kGcn);

  SimulationRequest big_block;
  big_block.dataflow.block_size = 2048;
  expect_identical("block-2048", big_block, "citeseer", gnn::LayerKind::kGcn);
}

TEST(KernelSkip, MatchesReferenceOnAFusedSampledPlan) {
  // Nine cora frontiers sampled at fanout 10/5 and fused into one plan: the
  // shape a sampled serving dispatch simulates.
  util::Prng prng(2021);
  const graph::Dataset fused =
      graph::sample_fused_dataset(dataset("cora"), 9, graph::parse_fanout("10/5"), prng);
  expect_identical("cora-fused-sample",
                   core::compile_for(fused, core::table3_model(gnn::LayerKind::kGcn, fused.spec),
                                     SimulationRequest{}));
}

TEST(KernelSkip, SkipsTheVastMajorityOfCycles) {
  const auto& d = dataset("citeseer");
  const auto model = core::table3_model(gnn::LayerKind::kGcn, d.spec);
  const auto plan = core::compile_for(d, model, SimulationRequest{});
  const auto result = core::Accelerator::run_timing(plan);
  ASSERT_GT(result.cycles, 0u);
  const double skip_ratio = static_cast<double>(result.kernel_cycles_skipped) /
                            static_cast<double>(result.cycles);
  EXPECT_GT(skip_ratio, 0.5);
}

// ------------------------------------------------------------ DRAM epochs --

/// Submits scripted transfer waves at fixed cycles, so grants start while
/// earlier round-robin epochs are still in flight.
class SubmitScript : public sim::Component {
 public:
  struct Wave {
    Cycle at = 0;
    std::uint64_t bytes = 0;
  };

  SubmitScript(mem::DramModel& dram, std::vector<Wave> waves)
      : sim::Component("submit-script"),
        dram_(dram),
        client_(dram.intern_client("script")),
        waves_(std::move(waves)) {}

  void tick(Cycle now) override {
    while (next_ < waves_.size() && waves_[next_].at <= now) {
      ids_.push_back(dram_.submit(mem::MemOp::kRead, waves_[next_].bytes, client_));
      ++next_;
    }
  }
  [[nodiscard]] bool busy() const override { return next_ < waves_.size(); }
  [[nodiscard]] Cycle next_event(Cycle now) const override {
    return next_ < waves_.size() ? std::max(waves_[next_].at, now + 1) : sim::kNoEvent;
  }

  [[nodiscard]] const std::vector<mem::DmaId>& ids() const { return ids_; }

 private:
  mem::DramModel& dram_;
  mem::DmaClient client_;
  std::vector<Wave> waves_;
  std::size_t next_ = 0;
  std::vector<mem::DmaId> ids_;
};

struct DramOutcome {
  Cycle end = 0;
  std::map<std::string, std::uint64_t> stats;
  std::vector<Cycle> visible;
};

DramOutcome run_dram(const mem::DramModel::Config& config,
                     const std::vector<SubmitScript::Wave>& waves, bool reference) {
  mem::DramModel dram(config);
  SubmitScript script(dram, waves);
  sim::SimKernel kernel;
  kernel.add(dram);
  kernel.add(script);
  DramOutcome out;
  out.end = reference ? kernel.run_reference() : kernel.run();
  out.stats = dram.stats().counters();
  for (const mem::DmaId id : script.ids()) {
    EXPECT_TRUE(dram.is_complete(id));
    out.visible.push_back(dram.complete_visible_at(id));
  }
  return out;
}

TEST(KernelSkip, DramRoundRobinEpochsMatchReference) {
  // Mixed sizes force transfers to drop out of the round-robin at different
  // epochs; the second wave arrives mid-epoch.
  const std::vector<SubmitScript::Wave> waves = {
      {0, 64}, {0, 640}, {0, 4096}, {0, 100}, {37, 8192}, {37, 64}, {200, 256}};
  const mem::DramModel::Config config;  // 256 B/cycle, 64 B txn, 100-cycle latency
  const DramOutcome fast = run_dram(config, waves, /*reference=*/false);
  const DramOutcome slow = run_dram(config, waves, /*reference=*/true);
  EXPECT_EQ(fast.end, slow.end);
  EXPECT_EQ(fast.stats, slow.stats);
  EXPECT_EQ(fast.visible, slow.visible);
}

TEST(KernelSkip, DramBankedCreditClampMatchesReference) {
  // An idle tick banks a full cycle of credit; a small transfer submitted
  // the same cycle (engines tick after the DRAM) is then fully granted
  // inside a single skipped cycle, leaving leftover credit above one
  // cycle's budget — the case where skip must apply the same
  // pin-bandwidth cap as the reference tick.
  const std::vector<SubmitScript::Wave> waves = {{10, 128}, {12, 4096}, {13, 64}};
  const mem::DramModel::Config config;
  const DramOutcome fast = run_dram(config, waves, /*reference=*/false);
  const DramOutcome slow = run_dram(config, waves, /*reference=*/true);
  EXPECT_EQ(fast.end, slow.end);
  EXPECT_EQ(fast.stats, slow.stats);
  EXPECT_EQ(fast.visible, slow.visible);
}

TEST(KernelSkip, DramFractionalBandwidthSkipsInClosedForm) {
  // 100 B/cycle over 64 B transactions is not a whole epoch per cycle: the
  // rational-arithmetic credit (25/16 transactions per cycle, exact) keeps
  // the grant schedule closed-form anyway — skipping must match the exact
  // per-cycle stepping bit for bit.
  mem::DramModel::Config config;
  config.bytes_per_cycle = 100.0;
  const std::vector<SubmitScript::Wave> waves = {{0, 640}, {0, 64}, {5, 1000}};
  const DramOutcome fast = run_dram(config, waves, /*reference=*/false);
  const DramOutcome slow = run_dram(config, waves, /*reference=*/true);
  EXPECT_EQ(fast.end, slow.end);
  EXPECT_EQ(fast.stats, slow.stats);
  EXPECT_EQ(fast.visible, slow.visible);
}

TEST(KernelSkip, DramFractionalRatesSkipAndMatchExactStepping) {
  // The rational-credit fast-forward (ROADMAP item: fractional
  // transactions-per-cycle rates) across sub-transaction, dyadic-fraction
  // and awkward-mantissa bandwidths: the event-driven run must (a) match
  // exact stepping on end cycle, stats and per-transfer completion cycles,
  // and (b) actually fast-forward, not degrade to per-cycle stepping.
  const std::vector<SubmitScript::Wave> waves = {
      {0, 64}, {0, 640}, {3, 4096}, {37, 8192}, {37, 64}, {500, 256}};
  for (const double bytes_per_cycle : {48.0, 96.0, 100.0, 409.6, 85.3, 27.125}) {
    SCOPED_TRACE(bytes_per_cycle);
    mem::DramModel::Config config;
    config.bytes_per_cycle = bytes_per_cycle;
    const DramOutcome fast = run_dram(config, waves, /*reference=*/false);
    const DramOutcome slow = run_dram(config, waves, /*reference=*/true);
    EXPECT_EQ(fast.end, slow.end);
    EXPECT_EQ(fast.stats, slow.stats);
    EXPECT_EQ(fast.visible, slow.visible);
  }
}

TEST(KernelSkip, DramPredictionMatchesSteppedCompletion) {
  // complete_visible_at must name the exact cycle at which a poller ticking
  // after the DRAM first sees is_complete.
  mem::DramModel dram(mem::DramModel::Config{});
  const mem::DmaId a = dram.submit(mem::MemOp::kRead, 1024, dram.intern_client("t"));  // 16 txns
  const mem::DmaId b = dram.submit(mem::MemOp::kRead, 64, dram.intern_client("t"));    // 1 txn
  dram.tick(0);
  const Cycle predicted_a = dram.complete_visible_at(a);
  const Cycle predicted_b = dram.complete_visible_at(b);
  Cycle now = 1;
  std::map<mem::DmaId, Cycle> first_visible;
  while (dram.busy()) {
    dram.tick(now);
    for (const mem::DmaId id : {a, b}) {
      if (dram.is_complete(id) && first_visible.find(id) == first_visible.end()) {
        first_visible[id] = now;
      }
    }
    ++now;
  }
  EXPECT_EQ(first_visible.at(a), predicted_a);
  EXPECT_EQ(first_visible.at(b), predicted_b);
}

// -------------------------------------------- systolic drain + sync token --

/// Signals a controller token at a fixed cycle (a scripted producer).
class SignalAt : public sim::Component {
 public:
  SignalAt(sim::SyncBoard& board, sim::TokenId token, Cycle at)
      : sim::Component("signal-script"), board_(board), token_(token), at_(at) {}

  void tick(Cycle now) override {
    if (!done_ && now >= at_) {
      board_.signal(token_);
      done_ = true;
    }
  }
  [[nodiscard]] bool busy() const override { return !done_; }
  [[nodiscard]] Cycle next_event(Cycle now) const override {
    return done_ ? sim::kNoEvent : std::max(at_, now + 1);
  }

 private:
  sim::SyncBoard& board_;
  sim::TokenId token_;
  Cycle at_;
  bool done_ = false;
};

struct EngineOutcome {
  Cycle end = 0;
  std::map<std::string, std::uint64_t> dram_stats;
  std::map<std::string, std::uint64_t> engine_stats;
};

EngineOutcome run_dense(bool reference) {
  mem::DramModel dram(mem::DramModel::Config{});
  sim::SyncBoard board;
  dense::DenseEngine engine(dense::DenseEngineConfig{}, dram, board);
  const sim::TokenId gate = board.create("gate");
  const sim::TokenId produced = board.create("produced");

  dense::GemmOp first;
  first.shape = {100, 333, 64};  // odd K: drain phase not a multiple of fills
  first.a_dma_bytes = 100 * 333 * 4;
  first.w_dma_bytes = 333 * 64 * 4;
  first.out_write_bytes = 100 * 64 * 4;
  engine.enqueue(first);

  dense::GemmOp second;  // stalls on the scripted token, then produces
  second.shape = {64, 64, 16};
  second.a_dma_bytes = 64 * 64 * 4;
  second.wait_token = gate;
  second.produce_token = produced;
  second.out_write_bytes = 64 * 16 * 4;
  engine.enqueue(second);

  SignalAt script(board, gate, 5000);
  sim::SimKernel kernel;
  kernel.add(dram);
  kernel.add(script);  // producer before consumer, like the graph engine
  kernel.add(engine);
  EngineOutcome out;
  out.end = reference ? kernel.run_reference() : kernel.run();
  EXPECT_TRUE(board.is_signaled(produced));
  out.dram_stats = dram.stats().counters();
  out.engine_stats = engine.stats().counters();
  return out;
}

TEST(KernelSkip, SystolicDrainAndTokenStallMatchReference) {
  const EngineOutcome fast = run_dense(/*reference=*/false);
  const EngineOutcome slow = run_dense(/*reference=*/true);
  EXPECT_EQ(fast.end, slow.end);
  EXPECT_EQ(fast.dram_stats, slow.dram_stats);
  EXPECT_EQ(fast.engine_stats, slow.engine_stats);
}

EngineOutcome run_graph(bool reference) {
  mem::DramModel dram(mem::DramModel::Config{});
  sim::SyncBoard board;
  gengine::GraphEngine engine(gengine::GraphEngineConfig{}, dram, board);
  const sim::TokenId gate = board.create("gate");
  const sim::TokenId wb_done = board.create("wb-done");

  gengine::ShardTask first;
  first.edge_dma_bytes = 4096;
  first.src_dma_bytes = 1 << 16;
  first.num_edges = 512;
  first.compute_cycles = 700;
  first.lane_ops = 512 * 16;
  engine.enqueue(first);

  gengine::ShardTask second;
  second.src_dma_bytes = 1 << 14;
  second.num_edges = 64;
  second.compute_cycles = 90;
  second.lane_ops = 64 * 16;
  second.wait_token = gate;
  second.produce_token = wb_done;
  second.dst_write_bytes = 1 << 12;
  second.signal_after_writeback = true;
  engine.enqueue(second);

  SignalAt script(board, gate, 3000);
  sim::SimKernel kernel;
  kernel.add(dram);
  kernel.add(script);
  kernel.add(engine);
  EngineOutcome out;
  out.end = reference ? kernel.run_reference() : kernel.run();
  EXPECT_TRUE(board.is_signaled(wb_done));
  out.dram_stats = dram.stats().counters();
  out.engine_stats = engine.stats().counters();
  return out;
}

TEST(KernelSkip, GraphEngineStallsAndWritebackSignalMatchReference) {
  const EngineOutcome fast = run_graph(/*reference=*/false);
  const EngineOutcome slow = run_graph(/*reference=*/true);
  EXPECT_EQ(fast.end, slow.end);
  EXPECT_EQ(fast.dram_stats, slow.dram_stats);
  EXPECT_EQ(fast.engine_stats, slow.engine_stats);
}

// ------------------------------------------------------------ kernel edge --

TEST(KernelSkip, LegacyComponentsStepExactlyAsBefore) {
  // A component with the default next_event (now + 1 while busy) pins the
  // kernel to exact stepping: zero skipped cycles, identical end cycle.
  class Countdown : public sim::Component {
   public:
    explicit Countdown(int work) : sim::Component("countdown"), work_(work) {}
    void tick(Cycle) override {
      if (work_ > 0) {
        --work_;
      }
    }
    [[nodiscard]] bool busy() const override { return work_ > 0; }

   private:
    int work_;
  };
  Countdown c(17);
  sim::SimKernel kernel;
  kernel.add(c);
  EXPECT_EQ(kernel.run(), 17u);
  EXPECT_EQ(kernel.cycles_skipped(), 0u);
  EXPECT_EQ(kernel.cycles_ticked(), 17u);
}

TEST(KernelSkip, AllReactiveComponentsDeadlockFast) {
  // Busy components that all answer kNoEvent can never make progress; the
  // kernel jumps to the limit and raises the reference loop's diagnostic
  // instead of grinding through 50 G cycles.
  class WaitsForever : public sim::Component {
   public:
    WaitsForever() : sim::Component("waits-forever") {}
    void tick(Cycle) override {}
    [[nodiscard]] bool busy() const override { return true; }
    [[nodiscard]] Cycle next_event(Cycle) const override { return sim::kNoEvent; }
  } stuck;
  sim::SimKernel kernel;
  kernel.add(stuck);
  EXPECT_THROW(kernel.run(), util::CheckError);
  EXPECT_LT(kernel.cycles_ticked(), 10u);
}

TEST(KernelSkip, SkipWindowsNeverContainEvents) {
  // A component that asserts the contract: skip() windows must lie strictly
  // between its announced events.
  class EventAt : public sim::Component {
   public:
    explicit EventAt(std::vector<Cycle> events)
        : sim::Component("event-at"), events_(std::move(events)) {}
    void tick(Cycle now) override {
      if (next_ < events_.size() && events_[next_] == now) {
        ++next_;
      }
    }
    [[nodiscard]] bool busy() const override { return next_ < events_.size(); }
    [[nodiscard]] Cycle next_event(Cycle now) const override {
      return next_ < events_.size() ? std::max(events_[next_], now + 1) : sim::kNoEvent;
    }
    void skip(Cycle from, Cycle to) override {
      if (next_ < events_.size()) {
        EXPECT_GT(events_[next_], to - 1) << "skip window covered an event";
      }
      EXPECT_GT(to, from);
    }

   private:
    std::vector<Cycle> events_;
    std::size_t next_ = 0;
  };
  EventAt a({3, 40, 41, 1000});
  EventAt b({900});
  sim::SimKernel kernel;
  kernel.add(a);
  kernel.add(b);
  EXPECT_EQ(kernel.run(), 1001u);
  EXPECT_GT(kernel.cycles_skipped(), 900u);
}

}  // namespace
}  // namespace gnnerator
