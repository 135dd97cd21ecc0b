// Tests for serving cost (src/core/cost_oracle, Server pricing):
// saturation of the analytic estimate (the llround overflow regression),
// the analytic memo and its fingerprint, oracle state determinism across
// both serving loops (including under a fault plan), exact-or-analytic
// pricing — each execution identity costs its simulated cycles once it has
// executed and its analytic estimate before — for SJF ordering and affinity
// placement, and the caller-driven WFQ charge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/cost_oracle.hpp"
#include "graph/datasets.hpp"
#include "serve/fleet.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"

namespace gnnerator::serve {
namespace {

core::SimulationRequest timing_sim(const std::string& dataset, gnn::LayerKind kind) {
  core::SimulationRequest sim;
  sim.dataset = dataset;
  sim.model = core::table3_model(kind, *graph::find_dataset(dataset));
  sim.mode = core::SimMode::kTiming;
  return sim;
}

class FixedWorkload final : public WorkloadSource {
 public:
  explicit FixedWorkload(std::vector<Request> arrivals) : arrivals_(std::move(arrivals)) {}
  std::vector<Request> initial_arrivals() override { return arrivals_; }

 private:
  std::vector<Request> arrivals_;
};

Request at_cycle(Cycle arrival, core::SimulationRequest sim, double slo_ms = 0.0) {
  Request r;
  r.arrival = arrival;
  r.sim = std::move(sim);
  r.slo_ms = slo_ms;
  return r;
}

/// FNV-1a over the completion records — the cross-loop identity the oracle
/// must preserve.
std::uint64_t records_fingerprint(const ServeReport& report) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  const auto mix_str = [&](const std::string& s) {
    mix(s.size());
    for (const char c : s) {
      mix(static_cast<std::uint8_t>(c));
    }
  };
  mix(report.outcomes.size());
  for (const Outcome& o : report.outcomes) {
    mix(o.id);
    mix(o.arrival);
    mix(o.dispatch);
    mix(o.completion);
    mix(o.device);
    mix(o.batch_size);
    mix(o.shed ? 1 : 0);
    mix(o.failed ? 1 : 0);
    mix(o.retries);
    mix(o.service_cycles);
    mix_str(o.klass);
    mix_str(o.class_key);
  }
  mix(report.end_cycle);
  return h;
}

// ------------------------------------------------------------- saturation --

TEST(CostOracle, SaturateCyclesClampsInsteadOfWrapping) {
  using core::CostOracle;
  // The floor: NaN and sub-cycle estimates clamp to 1 (0 doubles as "not
  // priced" in the serving registry).
  EXPECT_EQ(CostOracle::saturate_cycles(std::nan("")), 1u);
  EXPECT_EQ(CostOracle::saturate_cycles(0.0), 1u);
  EXPECT_EQ(CostOracle::saturate_cycles(0.3), 1u);
  EXPECT_EQ(CostOracle::saturate_cycles(-5.0e18), 1u);
  // Ordinary values round.
  EXPECT_EQ(CostOracle::saturate_cycles(12345.4), 12345u);
  EXPECT_EQ(CostOracle::saturate_cycles(12345.6), 12346u);
  // Past 2^53 a double no longer holds every integer, but the cast must
  // stay monotone and in range — the old llround path was UB from 2^63 up.
  const double past_53 = 9.0e15;  // > 2^53
  EXPECT_EQ(CostOracle::saturate_cycles(past_53), static_cast<std::uint64_t>(past_53));
  const double in_63_64 = 1.2e19;  // in [2^63, 2^64): llround UB territory
  EXPECT_EQ(CostOracle::saturate_cycles(in_63_64), static_cast<std::uint64_t>(in_63_64));
  // At and above 2^64: saturate to max, never wrap to a small cost.
  EXPECT_EQ(CostOracle::saturate_cycles(18446744073709551616.0),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(CostOracle::saturate_cycles(2.0e20),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(CostOracle::saturate_cycles(std::numeric_limits<double>::infinity()),
            std::numeric_limits<std::uint64_t>::max());
}

// ------------------------------------------------------------ analytic memo --

TEST(CostOracle, AnalyticEstimateIsMemoizedPerKey) {
  const graph::Dataset dataset = graph::make_dataset_by_name("cora", 1,
                                                             /*with_features=*/false);
  core::SimulationRequest sim;
  sim.dataset = "cora";
  sim.model = core::table3_model(gnn::LayerKind::kGcn, dataset.spec);
  sim.mode = core::SimMode::kTiming;

  core::CostOracle oracle;
  const std::uint64_t analytic = oracle.analytic(dataset, sim, "k");
  EXPECT_EQ(analytic, core::CostOracle::compute(dataset, sim));
  EXPECT_EQ(oracle.pipeline_runs(), 1u);
  // Memoized: the second call does not re-run the compiler pipeline.
  EXPECT_EQ(oracle.analytic(dataset, sim, "k"), analytic);
  EXPECT_EQ(oracle.pipeline_runs(), 1u);
  // A new key runs the pipeline again.
  EXPECT_EQ(oracle.analytic(dataset, sim, "k2"), analytic);
  EXPECT_EQ(oracle.pipeline_runs(), 2u);
}

TEST(CostOracle, StateFingerprintCoversTheMemo) {
  const graph::Dataset dataset = graph::make_dataset_by_name("cora", 1,
                                                             /*with_features=*/false);
  core::SimulationRequest sim;
  sim.model = core::table3_model(gnn::LayerKind::kGcn, dataset.spec);
  core::CostOracle a;
  core::CostOracle b;
  EXPECT_EQ(a.state_fingerprint(), b.state_fingerprint());
  (void)a.analytic(dataset, sim, "k");
  EXPECT_NE(a.state_fingerprint(), b.state_fingerprint());
  (void)b.analytic(dataset, sim, "k");
  EXPECT_EQ(a.state_fingerprint(), b.state_fingerprint());
  // The key is state, not just the estimate.
  (void)a.analytic(dataset, sim, "k2");
  (void)b.analytic(dataset, sim, "k3");
  EXPECT_NE(a.state_fingerprint(), b.state_fingerprint());
}

// ----------------------------------------------- cross-loop determinism --

/// The oracle is mutated only at event points, so its end-of-run state —
/// and every record decided from it — must be identical between
/// run_reference and serve, with tiers, a heterogeneous fleet, and a fault
/// plan in play.
TEST(CostOracleServe, OracleStateIdenticalAcrossLoops) {
  for (const bool with_faults : {false, true}) {
    SCOPED_TRACE(with_faults ? "faulted" : "healthy");
    const auto make_options = [&] {
      ServerOptions options;
      options.policy = SchedulingPolicy::kSjf;
      options.fleet = parse_fleet_spec("2xbaseline,1xnextgen");
      options.classes = parse_class_spec("interactive:5:4:1,bulk");
      options.default_slo_ms = 8.0;
      if (with_faults) {
        options.faults =
            parse_fault_plan("crash@0.2ms:dev2,recover@1ms:dev2", options.clock_ghz);
      }
      return options;
    };
    const auto run = [&](bool reference) {
      const ServerOptions options = make_options();
      Server server(options);
      server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
      server.add_dataset(
          graph::make_dataset_by_name("citeseer", 1, /*with_features=*/false));
      std::vector<RequestTemplate> mix;
      std::size_t i = 0;
      for (const gnn::LayerKind kind :
           {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
        RequestTemplate t;
        t.sim = timing_sim(i % 2 == 0 ? "cora" : "citeseer", kind);
        t.klass = i % 2 == 0 ? "interactive" : "bulk";
        mix.push_back(std::move(t));
        ++i;
      }
      PoissonWorkload workload(mix, /*rate_rps=*/12000.0, /*num_requests=*/120,
                               options.clock_ghz, /*seed=*/99);
      const ServeReport report =
          reference ? server.run_reference(workload) : server.serve(workload);
      return std::pair{records_fingerprint(report),
                       server.cost_oracle().state_fingerprint()};
    };

    const auto [ref_records, ref_oracle] = run(/*reference=*/true);
    EXPECT_GT(ref_oracle, 0u);
    // Committed goldens: both loops share the pricing code, so only these
    // can see a change that moves them together.
    EXPECT_EQ(ref_records, with_faults ? 14685084434332793067ULL : 2476034124478458142ULL);
    EXPECT_EQ(ref_oracle, 15330952463031846154ULL);
    const auto [records, oracle] = run(/*reference=*/false);
    EXPECT_EQ(records, ref_records);
    EXPECT_EQ(oracle, ref_oracle);
  }
}

// ------------------------------------------------ exact-or-analytic pricing --

/// Cycle counts of two cora plans on the baseline config: the analytic
/// estimate ranks GraphSAGE-mean below GraphSAGE-pool, the simulation the
/// other way round.
constexpr std::uint64_t kMeanAnalytic = 136'434;
constexpr std::uint64_t kMeanSimulated = 199'077;
constexpr std::uint64_t kPoolAnalytic = 141'915;
constexpr std::uint64_t kPoolSimulated = 145'134;

/// The order a single-device run dispatched its requests in, by class key.
std::vector<std::string> dispatch_order(const ServeReport& report) {
  std::vector<std::pair<Cycle, std::uint64_t>> by_time;
  for (const Outcome& o : report.outcomes) {
    by_time.emplace_back(o.dispatch, o.id);
  }
  std::sort(by_time.begin(), by_time.end());
  std::vector<std::string> order;
  for (const auto& [at, id] : by_time) {
    order.push_back(report.outcomes[id].class_key);
  }
  return order;
}

/// SJF queues a class on its analytic estimate until the class has
/// executed, and on its simulated cycles from then on — exactly, with no
/// blend toward the estimate.
TEST(CostOracleServe, SjfOrdersByExecutedCycles) {
  ServerOptions options;
  options.num_devices = 1;
  options.policy = SchedulingPolicy::kSjf;
  Server server(options);
  const graph::Dataset& cora =
      server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  const core::SimulationRequest mean = timing_sim("cora", gnn::LayerKind::kSageMean);
  const core::SimulationRequest pool = timing_sim("cora", gnn::LayerKind::kSagePool);
  const std::string mean_key = server.class_key(mean);
  const std::string pool_key = server.class_key(pool);

  // The analytic estimates the oracle memoizes rank mean below pool.
  EXPECT_EQ(core::CostOracle::compute(cora, mean), kMeanAnalytic);
  EXPECT_EQ(core::CostOracle::compute(cora, pool), kPoolAnalytic);

  // Wave 1: one of each, queued on the analytic estimates — mean first.
  {
    FixedWorkload wave({at_cycle(0, pool), at_cycle(0, mean)});
    const ServeReport report = server.serve(wave);
    ASSERT_EQ(report.metrics.completed, 2u);
    EXPECT_EQ(dispatch_order(report), (std::vector<std::string>{mean_key, pool_key}));
    // Each occupied the device for its simulated cycles plus overhead.
    for (const Outcome& o : report.outcomes) {
      EXPECT_EQ(o.service_cycles,
                (o.class_key == mean_key ? kMeanSimulated : kPoolSimulated) +
                    options.per_request_overhead);
    }
  }

  // Wave 2: both have executed, so SJF follows the simulated cycles — every
  // pool before any mean.
  FixedWorkload wave({at_cycle(0, mean), at_cycle(0, pool), at_cycle(0, mean),
                      at_cycle(0, pool)});
  const ServeReport report = server.serve(wave);
  ASSERT_EQ(report.metrics.completed, 4u);
  EXPECT_EQ(dispatch_order(report),
            (std::vector<std::string>{pool_key, pool_key, mean_key, mean_key}));
}

/// Affinity prices each candidate device by the request's execution
/// identity there: analytic until that identity has executed, its simulated
/// cycles (on the server clock, plus overhead) afterwards. The fleet is one
/// where the two disagree: on cora GCN the analytic estimate prices baseline
/// below 2x-dense, the simulation the other way round.
TEST(CostOracleServe, AffinityPricesExecutedIdentitiesBySimulatedCycles) {
  ServerOptions options;
  options.policy = SchedulingPolicy::kAffinity;
  options.fleet = parse_fleet_spec("1xbaseline,1x2x-dense");
  Server server(options);
  const graph::Dataset& cora =
      server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  const core::SimulationRequest sim = timing_sim("cora", gnn::LayerKind::kGcn);
  std::vector<std::uint64_t> analytic;
  for (const DeviceClass& klass : options.fleet) {
    core::SimulationRequest on_class = sim;
    on_class.config = klass.config;
    analytic.push_back(core::CostOracle::compute(cora, on_class));
  }
  ASSERT_LT(analytic[0], analytic[1]);

  // Wave 1: nothing has executed, so the first request goes to the
  // analytically cheaper baseline and the second to the idle 2x-dense.
  FixedWorkload warm({at_cycle(0, sim), at_cycle(0, sim)});
  const ServeReport first = server.serve(warm);
  ASSERT_EQ(first.metrics.completed, 2u);
  EXPECT_EQ(first.outcomes[0].device, 0u);
  EXPECT_EQ(first.outcomes[0].dispatch, 0u);
  EXPECT_EQ(first.outcomes[1].device, 1u);
  EXPECT_EQ(first.outcomes[1].dispatch, 0u);
  // Affinity dispatches one request per batch, so a record's service
  // cycles are its device's simulated cycles plus overhead.
  const Cycle baseline = first.outcomes[0].service_cycles;
  const Cycle dense = first.outcomes[1].service_cycles;
  ASSERT_LT(dense, baseline) << "the simulation should price 2x-dense below baseline";

  // Wave 2: both identities have executed, so placement follows the
  // simulated cycles and an idle fleet sends the request to 2x-dense.
  FixedWorkload probe({at_cycle(0, sim)});
  const ServeReport second = server.serve(probe);
  ASSERT_EQ(second.metrics.completed, 1u);
  EXPECT_EQ(second.outcomes[0].device, 1u);
  EXPECT_EQ(second.outcomes[0].service_cycles, dense);
}

// --------------------------------------------------------------- WFQ charge --

/// The tiered front end no longer self-charges at pop: the caller (the
/// server, at dispatch commit) charges the cost of the executing device
/// class, and the pop order follows those charges.
TEST(CostOracleServe, WfqPopOrderFollowsCallerCharges) {
  const std::unique_ptr<Scheduler> scheduler =
      make_scheduler(SchedulingPolicy::kFifo, Scheduler::Limits{},
                     parse_class_spec("a,b"));
  std::uint64_t id = 0;
  const auto enqueue = [&](std::size_t tier) {
    QueuedRequest q;
    q.request.id = id++;
    q.tier = tier;
    q.class_key = tier == 0 ? "ka" : "kb";
    q.cost_estimate = 100;  // queue-time estimate: identical across tiers
    scheduler->enqueue(std::move(q), 0);
  };
  for (int i = 0; i < 3; ++i) {
    enqueue(0);
  }
  for (int i = 0; i < 4; ++i) {
    enqueue(1);
  }
  const auto pop_tier = [&] {
    std::optional<DispatchBatch> batch = scheduler->pop(0);
    EXPECT_TRUE(batch.has_value());
    return batch->requests.front().tier;
  };
  // Equal virtual times tie-break to the lower tier index.
  EXPECT_EQ(pop_tier(), 0u);
  scheduler->charge(0, 1000);  // tier a executed on an expensive class
  EXPECT_EQ(pop_tier(), 1u);
  scheduler->charge(1, 10);  // tier b landed on a cheap class...
  EXPECT_EQ(pop_tier(), 1u);  // ...so it keeps winning
  scheduler->charge(1, 10);
  EXPECT_EQ(pop_tier(), 1u);
  scheduler->charge(1, 2000);  // until a big actual-cost charge flips it
  EXPECT_EQ(pop_tier(), 0u);
}

/// Old-vs-new behaviour pin: a batch shed in its entirety at dispatch never
/// occupied a device, so it must not advance its tier's virtual time. The
/// old pop-time charge taxed the tier for work that never ran, handing the
/// next dispatch to the other tier.
TEST(CostOracleServe, FullyShedBatchDoesNotChargeItsTier) {
  ServerOptions options;
  options.num_devices = 1;
  options.policy = SchedulingPolicy::kFifo;
  options.classes = parse_class_spec("a,b");
  Server server(options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  const core::SimulationRequest sim = timing_sim("cora", gnn::LayerKind::kGcn);

  std::vector<Request> burst;
  // One doomed tier-a request (impossible SLO: shed at dispatch commit)...
  Request doomed = at_cycle(0, sim, /*slo_ms=*/1e-6);
  doomed.klass = "a";
  burst.push_back(std::move(doomed));
  // ...then four normal requests per tier, all equal-cost.
  for (int i = 0; i < 4; ++i) {
    Request ra = at_cycle(0, sim);
    ra.klass = "a";
    burst.push_back(std::move(ra));
    Request rb = at_cycle(0, sim);
    rb.klass = "b";
    burst.push_back(std::move(rb));
  }
  FixedWorkload workload(burst);
  const ServeReport report = server.serve(workload);
  ASSERT_EQ(report.metrics.completed, 8u);
  ASSERT_EQ(report.metrics.shed, 1u);

  std::vector<std::pair<Cycle, std::string>> order;
  for (const Outcome& o : report.outcomes) {
    if (!o.shed) {
      order.emplace_back(o.dispatch, o.klass);
    }
  }
  std::sort(order.begin(), order.end());
  // Uncharged shed: the tiers alternate from the start, a first (lower
  // index at equal virtual time). A pop-time charge for the doomed batch
  // would have started b, a, b, a, ...
  const std::vector<std::string> expected = {"a", "b", "a", "b", "a", "b", "a", "b"};
  ASSERT_EQ(order.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(order[i].second, expected[i]) << "dispatch " << i;
  }
}

}  // namespace
}  // namespace gnnerator::serve
