// Tests for the serving subsystem (src/serve): batching/coalescing
// correctness (outputs bitwise identical to individual runs), SJF ordering
// against the cost-model oracle, SLO admission control shedding exactly the
// over-SLO tail, metrics percentiles against a brute-force sort, queue
// capacity, trace replay, closed-loop drivers, fleet-wide plan-cache
// sharing, and end-to-end determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/compiler.hpp"
#include "core/engine.hpp"
#include "core/plan_cache.hpp"
#include "serve/fleet.hpp"
#include "serve/metrics.hpp"
#include "serve/scheduler.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "util/check.hpp"

namespace gnnerator::serve {
namespace {

core::SimulationRequest timing_sim(const std::string& dataset, gnn::LayerKind kind) {
  core::SimulationRequest sim;
  sim.dataset = dataset;
  sim.model = core::table3_model(kind, *graph::find_dataset(dataset));
  sim.mode = core::SimMode::kTiming;
  return sim;
}

/// A workload of explicit, pre-timed requests (unit-test driver).
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

/// Acceptance: a coalesced batch's broadcast result is bitwise identical to
/// running every request individually through a plain Engine.
TEST(Serve, BatchedAndIndividualOutputsBitwiseIdentical) {
  ServerOptions options;
  options.num_devices = 2;
  options.policy = SchedulingPolicy::kDynamicBatch;
  options.limits.batch_window = ms_to_cycles(1.0, options.clock_ghz);
  options.collect_results = true;
  Server server(options);
  const graph::Dataset& cora = server.add_dataset(graph::make_dataset_by_name("cora"));
  const graph::Dataset& cite = server.add_dataset(graph::make_dataset_by_name("citeseer"));

  core::SimulationRequest f1 = timing_sim("cora", gnn::LayerKind::kGcn);
  f1.mode = core::SimMode::kFunctional;
  core::SimulationRequest f2 = timing_sim("citeseer", gnn::LayerKind::kSageMean);
  f2.mode = core::SimMode::kFunctional;

  // Three copies of each class inside one batching window -> two coalesced
  // batches of three.
  std::vector<Request> arrivals;
  for (int i = 0; i < 3; ++i) {
    arrivals.push_back(at_cycle(static_cast<Cycle>(i) * 1000, f1));
    arrivals.push_back(at_cycle(static_cast<Cycle>(i) * 1000, f2));
  }
  FixedWorkload workload(arrivals);
  const ServeReport report = server.serve(workload);

  ASSERT_EQ(report.outcomes.size(), 6u);
  core::Engine reference(core::EngineOptions{.num_threads = 1});
  const std::vector<core::ExecutionResult> individual = {
      reference.run(cora, f1.model, f1), reference.run(cite, f2.model, f2)};
  for (const Outcome& outcome : report.outcomes) {
    ASSERT_FALSE(outcome.shed);
    EXPECT_EQ(outcome.batch_size, 3u) << "request " << outcome.id << " was not coalesced";
    ASSERT_NE(outcome.result, nullptr);
    ASSERT_TRUE(outcome.result->output.has_value());
    const core::ExecutionResult& expect =
        outcome.class_key == server.class_key(f1) ? individual[0] : individual[1];
    EXPECT_EQ(outcome.result->cycles, expect.cycles);
    EXPECT_EQ(*outcome.result->output, *expect.output)
        << "batched output diverged for request " << outcome.id;
  }
  // One plan per (dataset, model) class across the whole fleet.
  EXPECT_EQ(server.cache_stats().misses, 2u);
}

/// Acceptance: with one device and a burst of distinct-cost jobs, SJF
/// dispatches in exactly the cost-model oracle's order.
TEST(Serve, SjfDispatchOrderMatchesCostOracle) {
  ServerOptions options;
  options.num_devices = 1;
  options.policy = SchedulingPolicy::kSjf;
  Server server(options);
  std::map<std::string, const graph::Dataset*> datasets;
  for (const char* name : {"cora", "citeseer", "pubmed"}) {
    datasets[name] =
        &server.add_dataset(graph::make_dataset_by_name(name, 1, /*with_features=*/false));
  }

  // A burst of jobs with well-separated analytic costs, all at cycle 0 in a
  // deliberately non-sorted emission order.
  std::vector<core::SimulationRequest> sims = {
      timing_sim("pubmed", gnn::LayerKind::kSageMean),   // heavy
      timing_sim("cora", gnn::LayerKind::kGcn),          // light
      timing_sim("citeseer", gnn::LayerKind::kSagePool), // medium-heavy
      timing_sim("citeseer", gnn::LayerKind::kGcn),      // medium
      timing_sim("pubmed", gnn::LayerKind::kSagePool),   // heavy
      timing_sim("cora", gnn::LayerKind::kSageMean),     // light-medium
  };
  std::vector<Request> arrivals;
  for (const auto& sim : sims) {
    arrivals.push_back(at_cycle(0, sim));
  }
  FixedWorkload workload(arrivals);
  const ServeReport report = server.serve(workload);
  ASSERT_EQ(report.outcomes.size(), sims.size());

  // The oracle's expected order: ascending (analytic estimate, id). No
  // class has executed when the burst is queued, so the analytic estimate
  // is what SJF ranks by.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> expected;  // (cost, id)
  for (std::size_t i = 0; i < sims.size(); ++i) {
    expected.emplace_back(core::CostOracle::compute(*datasets.at(sims[i].dataset), sims[i]), i);
  }
  std::sort(expected.begin(), expected.end());

  // Observed order: ids sorted by their dispatch cycle (single device, so
  // dispatch times are distinct).
  std::vector<Cycle> dispatched_at(report.outcomes.size());
  for (const Outcome& outcome : report.outcomes) {
    dispatched_at[outcome.id] = outcome.dispatch;
  }
  std::vector<std::uint64_t> order(sims.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
    return std::pair(dispatched_at[a], a) < std::pair(dispatched_at[b], b);
  });
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], expected[i].second)
        << "position " << i << ": SJF dispatched a job the oracle ranks differently";
  }
}

/// Acceptance: under overload with a hard SLO, admission control sheds
/// exactly the tail that could not have met the deadline — no more, no less.
TEST(Serve, AdmissionControlShedsExactlyTheOverSloTail) {
  ServerOptions options;
  options.num_devices = 1;
  options.policy = SchedulingPolicy::kFifo;
  options.per_request_overhead = 5000;
  Server server(options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  const core::SimulationRequest sim = timing_sim("cora", gnn::LayerKind::kGcn);

  // Learn the exact service time from a probe run, then give a burst of 8 a
  // budget of ~3.5 service times: requests 0..2 can finish in time,
  // requests 3..7 provably cannot.
  {
    FixedWorkload probe({at_cycle(0, sim)});
    (void)server.serve(probe);
  }
  core::Engine probe_engine(core::EngineOptions{.num_threads = 1});
  const graph::Dataset cora_copy =
      graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const Cycle service =
      probe_engine.run(cora_copy, sim.model, sim).cycles + options.per_request_overhead;
  const double slo_ms = cycles_to_ms(service, options.clock_ghz) * 3.5;

  std::vector<Request> burst;
  for (int i = 0; i < 8; ++i) {
    burst.push_back(at_cycle(0, sim, slo_ms));
  }
  FixedWorkload workload(burst);
  const ServeReport report = server.serve(workload);

  ASSERT_EQ(report.outcomes.size(), 8u);
  for (const Outcome& outcome : report.outcomes) {
    const bool should_shed = outcome.id >= 3;
    EXPECT_EQ(outcome.shed, should_shed)
        << "request " << outcome.id << ": completion " << (outcome.id + 1) * service
        << " vs deadline " << ms_to_cycles(slo_ms, options.clock_ghz);
    if (!outcome.shed) {
      EXPECT_EQ(outcome.completion, (outcome.id + 1) * service);
      EXPECT_LE(outcome.latency_ms(options.clock_ghz), slo_ms);
    }
  }
  EXPECT_EQ(report.metrics.shed, 5u);
  EXPECT_EQ(report.metrics.completed, 3u);
  // Attainment counts shed requests as missed SLOs: 3 of 8.
  EXPECT_NEAR(report.metrics.slo_attainment, 3.0 / 8.0, 1e-12);
}

/// Acceptance: the report's streaming percentiles equal a brute-force sort
/// of the same latencies (exact regime).
TEST(Serve, MetricsPercentilesMatchBruteForceSort) {
  ServerOptions options;
  options.num_devices = 2;
  options.policy = SchedulingPolicy::kFifo;
  Server server(options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  server.add_dataset(graph::make_dataset_by_name("citeseer", 1, /*with_features=*/false));

  std::vector<RequestTemplate> mix;
  for (const char* name : {"cora", "citeseer"}) {
    for (const gnn::LayerKind kind : {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
      RequestTemplate t;
      t.sim = timing_sim(name, kind);
      mix.push_back(std::move(t));
    }
  }
  PoissonWorkload workload(mix, /*rate_rps=*/8000.0, /*num_requests=*/200,
                           options.clock_ghz, /*seed=*/99);
  const ServeReport report = server.serve(workload);
  ASSERT_EQ(report.metrics.completed, 200u);

  std::vector<double> latencies;
  for (const Outcome& outcome : report.outcomes) {
    latencies.push_back(outcome.latency_ms(options.clock_ghz));
  }
  std::sort(latencies.begin(), latencies.end());
  const auto brute = [&](double q) {
    const double rank = q * static_cast<double>(latencies.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, latencies.size() - 1);
    return latencies[lo] + (rank - static_cast<double>(lo)) * (latencies[hi] - latencies[lo]);
  };
  EXPECT_DOUBLE_EQ(report.metrics.p50_ms, brute(0.50));
  EXPECT_DOUBLE_EQ(report.metrics.p95_ms, brute(0.95));
  EXPECT_DOUBLE_EQ(report.metrics.p99_ms, brute(0.99));
}

/// Two seeded runs produce identical per-request records, for every policy.
TEST(Serve, CompletionRecordsDeterministicAcrossRuns) {
  for (const SchedulingPolicy policy :
       {SchedulingPolicy::kFifo, SchedulingPolicy::kSjf, SchedulingPolicy::kDynamicBatch}) {
    SCOPED_TRACE(std::string(policy_name(policy)));
    std::vector<ServeReport> reports;
    for (int run = 0; run < 2; ++run) {
      ServerOptions options;
      options.num_devices = 3;
      options.policy = policy;
      Server server(options);
      server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
      std::vector<RequestTemplate> mix;
      for (const gnn::LayerKind kind :
           {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
        RequestTemplate t;
        t.sim = timing_sim("cora", kind);
        mix.push_back(std::move(t));
      }
      PoissonWorkload workload(mix, /*rate_rps=*/30000.0, /*num_requests=*/300,
                               options.clock_ghz, /*seed=*/4242);
      reports.push_back(server.serve(workload));
    }
    const ServeReport& a = reports[0];
    const ServeReport& b = reports[1];
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    EXPECT_EQ(a.end_cycle, b.end_cycle);
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
      EXPECT_EQ(a.outcomes[i].dispatch, b.outcomes[i].dispatch) << "request " << i;
      EXPECT_EQ(a.outcomes[i].completion, b.outcomes[i].completion) << "request " << i;
      EXPECT_EQ(a.outcomes[i].device, b.outcomes[i].device) << "request " << i;
      EXPECT_EQ(a.outcomes[i].batch_size, b.outcomes[i].batch_size) << "request " << i;
      EXPECT_EQ(a.outcomes[i].shed, b.outcomes[i].shed) << "request " << i;
    }
    EXPECT_EQ(a.format(), b.format());
  }
}

/// A fleet compiles each plan once: every device engine shares one cache.
TEST(Serve, FleetSharesOnePlanCache) {
  ServerOptions options;
  options.num_devices = 4;
  options.policy = SchedulingPolicy::kFifo;
  Server server(options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  server.add_dataset(graph::make_dataset_by_name("citeseer", 1, /*with_features=*/false));

  std::vector<Request> arrivals;
  for (int i = 0; i < 20; ++i) {
    arrivals.push_back(at_cycle(static_cast<Cycle>(i) * 100,
                                timing_sim(i % 2 == 0 ? "cora" : "citeseer",
                                           gnn::LayerKind::kGcn)));
  }
  FixedWorkload workload(arrivals);
  const ServeReport report = server.serve(workload);
  EXPECT_EQ(report.metrics.completed, 20u);
  EXPECT_EQ(report.plan_cache.misses, 2u) << "one compile per class across 4 devices";
}

/// Dynamic batching honours max_batch: an oversize ripe group splits into
/// capped dispatches instead of one giant batch.
TEST(Serve, DynamicBatchingCapsBatchSize) {
  ServerOptions options;
  options.num_devices = 1;
  options.policy = SchedulingPolicy::kDynamicBatch;
  options.limits.max_batch = 8;
  options.limits.batch_window = ms_to_cycles(0.01, options.clock_ghz);
  Server server(options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));

  std::vector<Request> burst;
  for (int i = 0; i < 40; ++i) {
    burst.push_back(at_cycle(0, timing_sim("cora", gnn::LayerKind::kGcn)));
  }
  FixedWorkload workload(burst);
  const ServeReport report = server.serve(workload);
  ASSERT_EQ(report.metrics.completed, 40u);
  for (const Outcome& outcome : report.outcomes) {
    EXPECT_LE(outcome.batch_size, 8u) << "request " << outcome.id;
    EXPECT_EQ(outcome.batch_size, 8u) << "full groups should dispatch at the cap";
  }
  EXPECT_EQ(report.devices[0].batches, 5u);
}

/// Bounded admission queue sheds on arrival once full.
TEST(Serve, QueueCapacityShedsOnArrival) {
  ServerOptions options;
  options.num_devices = 1;
  options.policy = SchedulingPolicy::kFifo;
  options.queue_capacity = 2;
  Server server(options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));

  std::vector<Request> burst;
  for (int i = 0; i < 10; ++i) {
    burst.push_back(at_cycle(0, timing_sim("cora", gnn::LayerKind::kGcn)));
  }
  FixedWorkload workload(burst);
  const ServeReport report = server.serve(workload);
  EXPECT_EQ(report.metrics.completed, 2u);
  EXPECT_EQ(report.metrics.shed, 8u);
  // Depth is sampled after dispatch: the burst fills to capacity 2, the
  // device immediately drains one.
  EXPECT_EQ(report.max_queue_depth, 1u);
}

/// Writes `csv` to a temporary file and parses it with
/// TraceWorkload::from_file, the path the trace-replay programs run.
TraceWorkload trace_from_text(const std::string& csv, const core::SimulationRequest& base,
                              double clock_ghz) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "gnnerator_serve_test_trace.csv").string();
  std::ofstream(path, std::ios::binary) << csv;
  struct Remove {
    const std::string& path;
    ~Remove() { std::remove(path.c_str()); }
  } remove{path};
  return TraceWorkload::from_file(path, base, clock_ghz);
}

/// Trace replay: arrival times and SLOs come from the CSV, quoting and
/// unsorted rows included; unknown names fail with a row-numbered error.
TEST(Serve, TraceReplayRespectsArrivalsAndSlo) {
  const std::string csv =
      "arrival_ms,dataset,model,slo_ms\n"
      "2.5,cora,gcn,10\n"
      "0.5,\"cora\",gsage,0\n"
      "1.0,citeseer,gsage-max,5\n";
  core::SimulationRequest base;
  TraceWorkload trace = trace_from_text(csv, base, /*clock_ghz=*/1.0);
  ASSERT_EQ(trace.size(), 3u);
  std::vector<Request> arrivals = trace.initial_arrivals();
  EXPECT_EQ(arrivals[0].arrival, ms_to_cycles(2.5, 1.0));
  EXPECT_EQ(arrivals[0].slo_ms, 10.0);
  EXPECT_EQ(arrivals[1].sim.model.name, "gsage");
  EXPECT_EQ(arrivals[2].sim.dataset, "citeseer");

  ServerOptions options;
  options.num_devices = 1;
  Server server(options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  server.add_dataset(graph::make_dataset_by_name("citeseer", 1, /*with_features=*/false));
  const ServeReport report = server.serve(trace);
  ASSERT_EQ(report.outcomes.size(), 3u);
  // Ids are assigned in arrival order: 0.5ms, 1.0ms, 2.5ms.
  EXPECT_EQ(report.outcomes[0].arrival, ms_to_cycles(0.5, 1.0));
  EXPECT_EQ(report.outcomes[1].arrival, ms_to_cycles(1.0, 1.0));
  EXPECT_EQ(report.outcomes[2].arrival, ms_to_cycles(2.5, 1.0));

  EXPECT_THROW((void)trace_from_text(
                   "arrival_ms,dataset,model,slo_ms\n1.0,nosuch,gcn,0\n", base, 1.0),
               util::CheckError);
  EXPECT_THROW((void)trace_from_text("wrong,header\n", base, 1.0), util::CheckError);
}

/// Trace-reader robustness: CRLF endings, whitespace around cells, the
/// optional class column, header-only traces, and *strict* numeric parsing
/// (trailing garbage is an error, not a silent truncation).
TEST(Serve, TraceReaderHandlesFuzzedEdgeCases) {
  core::SimulationRequest base;

  // CRLF + whitespace around every field + class column.
  const std::string csv =
      "arrival_ms,dataset,model,slo_ms,class\r\n"
      " 1.5 ,  cora , gcn , 10 , interactive \r\n"
      "0.5,citeseer,gsage,0,bulk\r\n";
  TraceWorkload trace = trace_from_text(csv, base, /*clock_ghz=*/1.0);
  ASSERT_EQ(trace.size(), 2u);
  const std::vector<Request> arrivals = trace.initial_arrivals();
  EXPECT_EQ(arrivals[0].arrival, ms_to_cycles(1.5, 1.0));
  EXPECT_EQ(arrivals[0].sim.dataset, "cora");
  EXPECT_EQ(arrivals[0].slo_ms, 10.0);
  EXPECT_EQ(arrivals[0].klass, "interactive");
  EXPECT_EQ(arrivals[1].klass, "bulk");

  // Header-only file: a valid empty workload, not an error.
  TraceWorkload empty = trace_from_text("arrival_ms,dataset,model,slo_ms\n", base, 1.0);
  EXPECT_EQ(empty.size(), 0u);
  ServerOptions options;
  options.num_devices = 1;
  Server server(options);
  const ServeReport report = server.serve(empty);
  EXPECT_EQ(report.outcomes.size(), 0u);
  EXPECT_EQ(report.metrics.completed, 0u);

  // Strict numbers: std::stod would have accepted "1.5x" as 1.5.
  EXPECT_THROW((void)trace_from_text(
                   "arrival_ms,dataset,model,slo_ms\n1.5x,cora,gcn,0\n", base, 1.0),
               util::CheckError);
  EXPECT_THROW((void)trace_from_text(
                   "arrival_ms,dataset,model,slo_ms\n1.0,cora,gcn,5ms\n", base, 1.0),
               util::CheckError);
  // Unknown extra columns are rejected instead of silently ignored.
  EXPECT_THROW((void)trace_from_text("arrival_ms,dataset,model,slo_ms,frobnicate\n", base, 1.0),
               util::CheckError);
  // Times must become cycles: a non-finite value, or one at or past 2^63
  // cycles, names its row instead of arriving at cycle 0 or setting an SLO
  // that can never be missed.
  for (const char* row : {"inf,cora,gcn,0", "1e300,cora,gcn,0", "0,cora,gcn,inf",
                          "0,cora,gcn,1e300", "nan,cora,gcn,0"}) {
    SCOPED_TRACE(row);
    const std::string bad = std::string("arrival_ms,dataset,model,slo_ms\n") + row + "\n";
    EXPECT_THROW((void)trace_from_text(bad, base, 1.0), util::CheckError);
  }

  // The same bound holds for an SLO set on a request directly: admission
  // names the request.
  ServerOptions one;
  one.num_devices = 1;
  Server direct(one);
  direct.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  Request huge_slo = at_cycle(0, timing_sim("cora", gnn::LayerKind::kGcn));
  huge_slo.slo_ms = 1e300;
  FixedWorkload unfit({huge_slo});
  try {
    (void)direct.serve(unfit);
    ADD_FAILURE() << "an SLO past the cycle clock's range was admitted";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("request 0"), std::string::npos) << e.what();
  }
}

/// The optional seed,fanout trace column pair: sampled rows parse into
/// sampled requests, blank/-1 seed cells keep rows full-graph, old 4- and
/// 5-column traces keep parsing unchanged, and malformed seeds, fanouts,
/// and headers name the offending row.
TEST(Serve, TraceSampleColumnsParseAndValidate) {
  core::SimulationRequest base;

  // seed,fanout directly after slo_ms (no class column). The '/'-separated
  // fanout spelling survives the comma-delimited cell.
  const std::string csv =
      "arrival_ms,dataset,model,slo_ms,seed,fanout\n"
      "0.5,cora,gcn,0,5,10/5\n"
      "1.0,cora,gsage,0,,\n"
      "1.5,citeseer,gcn,0,-1,\n"
      "2.0,citeseer,gsage,0,12,2x4\n";
  TraceWorkload trace = trace_from_text(csv, base, /*clock_ghz=*/1.0);
  const std::vector<Request> arrivals = trace.initial_arrivals();
  ASSERT_EQ(arrivals.size(), 4u);
  EXPECT_TRUE(arrivals[0].is_sampled());
  EXPECT_EQ(arrivals[0].seed, 5);
  EXPECT_EQ(arrivals[0].fanout, "10/5");
  EXPECT_FALSE(arrivals[1].is_sampled());  // blank seed cell
  EXPECT_FALSE(arrivals[2].is_sampled());  // explicit -1
  EXPECT_TRUE(arrivals[3].is_sampled());
  EXPECT_EQ(arrivals[3].fanout, "2x4");

  // class and seed,fanout together (class first, per the header grammar).
  const std::string classed =
      "arrival_ms,dataset,model,slo_ms,class,seed,fanout\n"
      "0.5,cora,gcn,10,interactive,7,6/4\n";
  const std::vector<Request> with_class = trace_from_text(classed, base, 1.0).initial_arrivals();
  ASSERT_EQ(with_class.size(), 1u);
  EXPECT_EQ(with_class[0].klass, "interactive");
  EXPECT_EQ(with_class[0].seed, 7);
  EXPECT_EQ(with_class[0].fanout, "6/4");

  // A sampled trace serves end to end.
  ServerOptions options;
  options.num_devices = 1;
  Server server(options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  server.add_dataset(graph::make_dataset_by_name("citeseer", 1, /*with_features=*/false));
  const ServeReport report = server.serve(trace);
  EXPECT_EQ(report.metrics.completed, 4u);

  // Old headers parse exactly as before the columns existed.
  EXPECT_EQ(trace_from_text("arrival_ms,dataset,model,slo_ms\n0.5,cora,gcn,0\n", base, 1.0)
                .initial_arrivals()[0]
                .seed,
            -1);

  // seed without fanout is a header error, not a silent reinterpretation.
  EXPECT_THROW((void)trace_from_text("arrival_ms,dataset,model,slo_ms,seed\n", base, 1.0),
               util::CheckError);
  // Malformed or out-of-range cells name the row.
  EXPECT_THROW((void)trace_from_text(
                   "arrival_ms,dataset,model,slo_ms,seed,fanout\n0.5,cora,gcn,0,abc,10/5\n",
                   base, 1.0),
               util::CheckError);
  EXPECT_THROW((void)trace_from_text(
                   "arrival_ms,dataset,model,slo_ms,seed,fanout\n0.5,cora,gcn,0,999999,10/5\n",
                   base, 1.0),
               util::CheckError);
  EXPECT_THROW((void)trace_from_text(
                   "arrival_ms,dataset,model,slo_ms,seed,fanout\n0.5,cora,gcn,0,5,\n", base,
                   1.0),
               util::CheckError);
  EXPECT_THROW((void)trace_from_text(
                   "arrival_ms,dataset,model,slo_ms,seed,fanout\n0.5,cora,gcn,0,5,banana\n",
                   base, 1.0),
               util::CheckError);
}

/// The --policy spellings of the serving programs: every policy's name
/// parses back to it, and an unknown name is rejected.
TEST(Serve, ParsePolicyRoundTripsPolicyNames) {
  for (const SchedulingPolicy policy :
       {SchedulingPolicy::kFifo, SchedulingPolicy::kSjf, SchedulingPolicy::kDynamicBatch,
        SchedulingPolicy::kAffinity}) {
    SCOPED_TRACE(std::string(policy_name(policy)));
    EXPECT_EQ(parse_policy(policy_name(policy)), policy);
  }
  EXPECT_EQ(parse_policy("lifo"), std::nullopt);
  EXPECT_EQ(parse_policy(""), std::nullopt);
}

/// Fleet specs resolve to the paper's configs; request-class specs parse
/// the name[:slo[:weight[:priority]]] grammar.
TEST(Serve, FleetAndClassSpecParsing) {
  const std::vector<DeviceClass> fleet = parse_fleet_spec("2xbaseline,1xnextgen");
  ASSERT_EQ(fleet.size(), 2u);
  EXPECT_EQ(fleet[0].count, 2u);
  EXPECT_EQ(fleet[0].name, "baseline");
  EXPECT_EQ(fleet[0].config.dense.array.rows, 64u);
  EXPECT_EQ(fleet[1].count, 1u);
  EXPECT_EQ(fleet[1].config.dense.array.rows, 128u);  // 2x-dense folded in
  EXPECT_EQ(fleet[1].config.dram.bytes_per_cycle, 512.0);
  const std::vector<DeviceClass> bw = parse_fleet_spec("1x2x-bw");
  ASSERT_EQ(bw.size(), 1u);
  EXPECT_EQ(bw[0].config.dram.bytes_per_cycle, 512.0);
  EXPECT_EQ(bw[0].config.dense.array.rows, 64u);
  EXPECT_THROW((void)parse_fleet_spec("1xwarp-drive"), util::CheckError);

  const std::vector<RequestClass> classes = parse_class_spec("interactive:10:4:1,bulk");
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_EQ(classes[0].name, "interactive");
  EXPECT_EQ(classes[0].slo_ms, 10.0);
  EXPECT_EQ(classes[0].weight, 4.0);
  EXPECT_EQ(classes[0].priority, 1u);
  EXPECT_EQ(classes[1].name, "bulk");
  EXPECT_EQ(classes[1].slo_ms, 0.0);
  EXPECT_EQ(classes[1].weight, 1.0);
  EXPECT_EQ(classes[1].priority, 0u);
  EXPECT_THROW((void)parse_class_spec("a:1,a:2"), util::CheckError);       // duplicate
  EXPECT_THROW((void)parse_class_spec("a:1:-2"), util::CheckError);        // bad weight
  EXPECT_THROW((void)parse_class_spec("a:1:1:huge"), util::CheckError);    // bad priority
  EXPECT_THROW((void)parse_class_spec("a:inf"), util::CheckError);         // non-finite slo
  EXPECT_THROW((void)parse_class_spec("a:nan"), util::CheckError);
  EXPECT_THROW((void)parse_class_spec("a:1:inf"), util::CheckError);       // non-finite weight
  // A finite SLO the server's cycle clock cannot hold is rejected where the
  // clock is known.
  ServerOptions unfit;
  unfit.classes = parse_class_spec("a:1e300");
  EXPECT_THROW(Server{unfit}, util::CheckError);
  ServerOptions unfit_default;
  unfit_default.default_slo_ms = 1e300;
  EXPECT_THROW(Server{unfit_default}, util::CheckError);
}

/// A higher-priority tier with ready work always dispatches before a lower
/// one, whatever the arrival interleaving.
TEST(Serve, PriorityTierDispatchesFirst) {
  ServerOptions options;
  options.num_devices = 1;
  options.policy = SchedulingPolicy::kFifo;
  options.classes = parse_class_spec("bulk:0:1:0,urgent:0:1:5");
  Server server(options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  const core::SimulationRequest sim = timing_sim("cora", gnn::LayerKind::kGcn);

  std::vector<Request> burst;
  for (int i = 0; i < 6; ++i) {
    Request r = at_cycle(0, sim);
    r.klass = (i % 2 == 0) ? "bulk" : "urgent";
    burst.push_back(std::move(r));
  }
  FixedWorkload workload(burst);
  const ServeReport report = server.serve(workload);
  ASSERT_EQ(report.metrics.completed, 6u);

  std::vector<std::pair<Cycle, std::string>> order;  // (dispatch, klass)
  for (const Outcome& outcome : report.outcomes) {
    order.emplace_back(outcome.dispatch, outcome.klass);
  }
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(order[i].second, "urgent") << "dispatch position " << i;
  }
  for (std::size_t i = 3; i < 6; ++i) {
    EXPECT_EQ(order[i].second, "bulk") << "dispatch position " << i;
  }
}

/// Equal-priority tiers share the device by weight: with weights 3:1 and
/// equal-cost jobs, the heavy tier gets 3 of every 4 dispatches.
TEST(Serve, WeightedFairSharesFollowWeights) {
  ServerOptions options;
  options.num_devices = 1;
  options.policy = SchedulingPolicy::kFifo;
  options.classes = parse_class_spec("heavy:0:3:0,light:0:1:0");
  Server server(options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  const core::SimulationRequest sim = timing_sim("cora", gnn::LayerKind::kGcn);

  std::vector<Request> burst;
  for (int i = 0; i < 16; ++i) {
    Request r = at_cycle(0, sim);
    r.klass = i < 8 ? "heavy" : "light";
    burst.push_back(std::move(r));
  }
  FixedWorkload workload(burst);
  const ServeReport report = server.serve(workload);
  ASSERT_EQ(report.metrics.completed, 16u);

  std::vector<std::pair<Cycle, std::string>> order;
  for (const Outcome& outcome : report.outcomes) {
    order.emplace_back(outcome.dispatch, outcome.klass);
  }
  std::sort(order.begin(), order.end());
  // While both tiers have backlog (the first 8 dispatches; jobs are
  // equal-cost), the 3:1 weighted-fair share gives heavy 6 of 8.
  std::size_t heavy_early = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    heavy_early += order[i].second == "heavy" ? 1 : 0;
  }
  EXPECT_EQ(heavy_early, 6u);
}

/// A tier waking from idle is clamped to its *equal-priority* peers'
/// virtual time: a starved lower-priority tier (active since the start
/// with virtual time ~0) must not pull the waking tier's floor down and
/// let it replay its idle past against the band it actually competes in.
TEST(Serve, WfqIdleWakeClampIgnoresOtherPriorityLevels) {
  ServerOptions options;
  options.num_devices = 1;
  options.policy = SchedulingPolicy::kFifo;
  options.classes = parse_class_spec("heavy:0:1:5,light:0:1:5,background:0:1:0");
  Server server(options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  const core::SimulationRequest sim = timing_sim("cora", gnn::LayerKind::kGcn);

  // Learn the per-request service time from a probe run.
  Cycle service = 0;
  {
    Request probe = at_cycle(0, sim);
    probe.klass = "heavy";
    FixedWorkload workload({probe});
    service = server.serve(workload).outcomes[0].service_cycles;
  }

  // 8 heavy (priority 5) jobs backlog from cycle 0, plus one background
  // (priority 0) job that stays starved — active the whole run with
  // virtual time 0. Midway (4 heavy dispatched, so heavy has accrued
  // virtual time) four light (priority 5) jobs wake their idle tier: a
  // floor taken across priority levels would see background's 0 and let
  // light drain all four before any remaining heavy; the correct
  // equal-priority floor clamps light to heavy's virtual time, so they
  // alternate.
  std::vector<Request> burst;
  for (int i = 0; i < 8; ++i) {
    Request r = at_cycle(0, sim);
    r.klass = "heavy";
    burst.push_back(std::move(r));
  }
  Request bg = at_cycle(0, sim);
  bg.klass = "background";
  burst.push_back(std::move(bg));
  const Cycle mid = 3 * service + service / 2;
  for (int i = 0; i < 4; ++i) {
    Request r = at_cycle(mid, sim);
    r.klass = "light";
    burst.push_back(std::move(r));
  }
  FixedWorkload workload(burst);
  const ServeReport report = server.serve(workload);
  ASSERT_EQ(report.metrics.completed, 13u);

  std::vector<std::pair<Cycle, std::string>> order;
  for (const Outcome& outcome : report.outcomes) {
    order.emplace_back(outcome.dispatch, outcome.klass);
  }
  std::sort(order.begin(), order.end());
  std::size_t light_in_first_four_after_wake = 0;
  std::size_t seen = 0;
  for (const auto& [dispatch, klass] : order) {
    if (dispatch < mid || seen >= 4) {
      continue;
    }
    ++seen;
    light_in_first_four_after_wake += klass == "light" ? 1 : 0;
  }
  ASSERT_EQ(seen, 4u);
  EXPECT_EQ(light_in_first_four_after_wake, 2u)
      << "light tier replayed its idle past against the heavy backlog";
  // The background job dispatches last (strict priority).
  EXPECT_EQ(order.back().second, "background");
}

/// On a heterogeneous fleet, affinity routes the bulk of the traffic to
/// the faster device class, and each device class compiles its own plan
/// exactly once through the shared cache.
TEST(Serve, AffinityPrefersFasterDeviceClassAndCachesPerClass) {
  ServerOptions options;
  options.fleet = parse_fleet_spec("1xbaseline,1xnextgen");
  options.policy = SchedulingPolicy::kAffinity;
  Server server(options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));

  std::vector<RequestTemplate> mix(1);
  mix[0].sim = timing_sim("cora", gnn::LayerKind::kGcn);
  PoissonWorkload workload(mix, /*rate_rps=*/6000.0, /*num_requests=*/120,
                           options.clock_ghz, /*seed=*/11);
  const ServeReport report = server.serve(workload);
  ASSERT_EQ(report.metrics.completed, 120u);
  ASSERT_EQ(report.devices.size(), 2u);
  EXPECT_EQ(report.devices[0].klass, "baseline");
  EXPECT_EQ(report.devices[1].klass, "nextgen");
  EXPECT_GT(report.devices[1].requests, report.devices[0].requests)
      << "affinity should route most traffic to the faster class";
  // One compile per (plan class x device class); devices of the same class
  // share through the fleet-wide cache.
  EXPECT_EQ(report.plan_cache.misses, 2u);
}

/// Per-class device clocks rescale service time onto the server timeline:
/// the same accelerator cycles at a 2 GHz class clock occupy the device
/// for half the server cycles.
TEST(Serve, MixedClockRescalesServiceOntoServerTimeline) {
  const auto serve_one = [&](double class_clock_ghz) {
    ServerOptions options;
    DeviceClass klass = *find_device_class("baseline");
    klass.clock_ghz = class_clock_ghz;
    options.fleet = {klass};
    options.policy = SchedulingPolicy::kFifo;
    Server server(options);
    server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
    FixedWorkload workload({at_cycle(0, timing_sim("cora", gnn::LayerKind::kGcn))});
    return server.serve(workload);
  };

  const ServeReport base = serve_one(1.0);
  const ServeReport fast = serve_one(2.0);
  ASSERT_EQ(base.outcomes.size(), 1u);
  ASSERT_EQ(fast.outcomes.size(), 1u);
  const Cycle overhead = ServerOptions{}.per_request_overhead;
  const auto device_cycles = static_cast<double>(base.outcomes[0].service_cycles - overhead);
  const Cycle expected =
      static_cast<Cycle>(std::llround(device_cycles * 0.5)) + overhead;
  EXPECT_EQ(fast.outcomes[0].service_cycles, expected);
  EXPECT_LT(fast.outcomes[0].completion, base.outcomes[0].completion);
}

/// Closed-loop clients re-issue after completion; the total request budget
/// is honoured and nothing overlaps beyond the client population.
TEST(Serve, ClosedLoopHonoursClientPopulation) {
  ServerOptions options;
  options.num_devices = 2;
  options.policy = SchedulingPolicy::kFifo;
  Server server(options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  std::vector<RequestTemplate> mix(1);
  mix[0].sim = timing_sim("cora", gnn::LayerKind::kGcn);

  ClosedLoopWorkload workload(mix, /*num_clients=*/2, /*total_requests=*/9,
                              /*think_ms=*/0.05, options.clock_ghz, /*seed=*/5);
  const ServeReport report = server.serve(workload);
  ASSERT_EQ(report.outcomes.size(), 9u);
  EXPECT_EQ(report.metrics.completed, 9u);

  // At any instant at most `num_clients` requests are in the system
  // (arrived, not completed).
  for (const Outcome& probe : report.outcomes) {
    std::size_t in_system = 0;
    for (const Outcome& other : report.outcomes) {
      if (other.arrival <= probe.arrival && probe.arrival < other.completion) {
        ++in_system;
      }
    }
    EXPECT_LE(in_system, 2u) << "at cycle " << probe.arrival;
  }
}

/// The class key and the plan-cache key are committed bytes: class keys land
/// in every Outcome::class_key and key every serving memo, plan keys key the
/// fleet plan cache. Both serving loops share the serializer, so the
/// loop-vs-loop differentials cannot see a byte move; these literals can.
TEST(Serve, ClassAndPlanKeysMatchGoldenBytes) {
  const graph::Dataset cora = graph::make_dataset_by_name("cora", 1, /*with_features=*/false);
  const std::string fingerprint = core::graph_fingerprint(cora.graph);

  struct Case {
    const char* name;
    core::SimulationRequest sim;
    const char* class_key;
    const char* plan_key;
  };
  std::vector<Case> cases;
  {
    Case c{"table4 gcn timing", timing_sim("cora", gnn::LayerKind::kGcn),
           "gd1a451d0957f6a30|gcn;0,1433,16,1;0,16,7,0|"
           "gnnerator,1,64x64,1,2097152,2097152,2097152,32,32,24117248,1048576,256,100,64|"
           "1,0,-1,0,0|0",
           "gd1a451d0957f6a30|gcn;0,1433,16,1;0,16,7,0|"
           "gnnerator,1,64x64,1,2097152,2097152,2097152,32,32,24117248,1048576,256,100,64|"
           "0|L0.S0:B64,n2708,S1,dst,pipe,cache;L1.S0:B16,n2708,S1,dst,pipe,cache"};
    cases.push_back(c);
  }
  {
    // Doubles that need all 17 significant digits to round-trip.
    Case c{"17-digit doubles", timing_sim("cora", gnn::LayerKind::kGcn),
           "gd1a451d0957f6a30|gcn;0,1433,16,1;0,16,7,0|"
           "gnnerator,0.69999999999999996,64x64,1,2097152,2097152,2097152,32,32,24117248,"
           "1048576,0.66666666666666663,100,64|"
           "1,0,-1,0,0|0",
           "gd1a451d0957f6a30|gcn;0,1433,16,1;0,16,7,0|"
           "gnnerator,0.69999999999999996,64x64,1,2097152,2097152,2097152,32,32,24117248,"
           "1048576,0.66666666666666663,100,64|"
           "0|L0.S0:B64,n2708,S1,dst,pipe,cache;L1.S0:B16,n2708,S1,dst,pipe,cache"};
    c.sim.config.clock_ghz = 0.7;
    c.sim.config.dram.bytes_per_cycle = 2.0 / 3.0;
    cases.push_back(c);
  }
  {
    Case c{"functional weight seed", timing_sim("cora", gnn::LayerKind::kSageMean),
           "gd1a451d0957f6a30|gsage;1,1433,16,1;1,16,7,0|"
           "gnnerator,1,64x64,1,2097152,2097152,2097152,32,32,24117248,1048576,256,100,64|"
           "1,0,-1,0,0|1,w1234567",
           "gd1a451d0957f6a30|gsage;1,1433,16,1;1,16,7,0|"
           "gnnerator,1,64x64,1,2097152,2097152,2097152,32,32,24117248,1048576,256,100,64|"
           "0|L0.S0:B64,n2708,S1,dst,pipe,cache;L1.S0:B16,n2708,S1,dst,pipe,cache"};
    c.sim.mode = core::SimMode::kFunctional;
    c.sim.weight_seed = 1234567;
    cases.push_back(c);
  }
  {
    Case c{"pinned traversal", timing_sim("cora", gnn::LayerKind::kSagePool),
           "gd1a451d0957f6a30|gsage-max;2,1433,16,1;2,16,7,0|"
           "gnnerator,1,64x64,1,2097152,2097152,2097152,32,32,24117248,1048576,256,100,64|"
           "0,32,1,0,0|0",
           "gd1a451d0957f6a30|gsage-max;2,1433,16,1;2,16,7,0|"
           "gnnerator,1,64x64,1,2097152,2097152,2097152,32,32,24117248,1048576,256,100,64|"
           "0|L0.S1:B16,n2708,S1,dst,pipe,cache;L1.S1:B7,n2708,S1,dst,pipe,cache"};
    c.sim.dataflow.traversal = shard::Traversal::kDestStationary;
    c.sim.dataflow.block_size = 32;
    c.sim.dataflow.feature_blocking = false;
    cases.push_back(c);
  }
  {
    Case c{"sparsity + autotune", timing_sim("cora", gnn::LayerKind::kGcn),
           "gd1a451d0957f6a30|gcn;0,1433,16,1;0,16,7,0|"
           "gnnerator,1,64x64,1,2097152,2097152,2097152,32,32,24117248,1048576,256,100,64|"
           "1,0,-1,1,1|0",
           "gd1a451d0957f6a30|gcn;0,1433,16,1;0,16,7,0|"
           "gnnerator,1,64x64,1,2097152,2097152,2097152,32,32,24117248,1048576,256,100,64|"
           "1|L0.S0:B64,n2708,S1,dst,pipe,cache;L1.S0:B16,n2708,S1,dst,pipe,cache"};
    c.sim.dataflow.sparsity_elimination = true;
    c.sim.dataflow.autotune = true;
    cases.push_back(c);
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string class_key = request_class_key(fingerprint, c.sim);
    EXPECT_EQ(class_key, c.class_key);
    core::Compiler compiler(cora.graph, c.sim.config, c.sim.dataflow);
    const std::string plan_key = core::plan_cache_key(
        fingerprint, c.sim.model, c.sim.config, c.sim.dataflow, compiler.resolve(c.sim.model));
    EXPECT_EQ(plan_key, c.plan_key);
    // Exact capacity: a queued request and its record each hold one key, so
    // slack left over from building the string would scale with the queue.
    EXPECT_EQ(class_key.capacity(), class_key.size());
    EXPECT_EQ(plan_key.capacity(), plan_key.size());
  }
}

}  // namespace
}  // namespace gnnerator::serve
