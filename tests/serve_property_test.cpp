// Property-based + differential test harness for the serving subsystem.
//
// Instead of anecdotal example tests, a seeded generator sweeps random
// workloads x policies x fleet specs and asserts *invariants* on every run:
//
//   * causality        — completion >= dispatch >= arrival; completion -
//                        dispatch equals the batch's service cycles;
//   * shed integrity   — shed requests never occupy a device, never carry a
//                        result, and are never counted as completed;
//   * accounting       — completed + shed == admitted; per-request-class
//                        counts sum to the totals;
//   * work conservation— no device idles while a compatible request is
//                        queued (FIFO/SJF: strict; dynamic batching: past
//                        the batching window; affinity: the fleet is never
//                        fully idle while work waits — affinity may
//                        legitimately hold a request for a busy preferred
//                        device);
//   * determinism      — two seeded replays produce byte-identical reports.
//
// A differential test pins the heterogeneous machinery to the homogeneous
// baseline: a fleet whose device classes are all identical to the default
// config must reproduce the homogeneous Server's completion records
// *bitwise*, for every policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "serve/fleet.hpp"
#include "serve/metrics.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "util/prng.hpp"

namespace gnnerator::serve {
namespace {

core::SimulationRequest timing_sim(const std::string& dataset, gnn::LayerKind kind) {
  core::SimulationRequest sim;
  sim.dataset = dataset;
  sim.model = core::table3_model(kind, *graph::find_dataset(dataset));
  sim.mode = core::SimMode::kTiming;
  return sim;
}

/// One randomly drawn serving scenario.
struct Scenario {
  ServerOptions options;
  double rate_rps = 0.0;
  std::size_t num_requests = 0;
  std::uint64_t workload_seed = 0;
  std::string description;
};

Scenario draw_scenario(std::uint64_t seed) {
  util::Prng prng(seed);
  Scenario s;

  const std::size_t fleet_pick = prng.uniform_u64(3);
  if (fleet_pick == 0) {
    s.options.num_devices = 1 + prng.uniform_u64(3);  // legacy homogeneous
  } else if (fleet_pick == 1) {
    s.options.fleet = parse_fleet_spec("1xbaseline,1xnextgen");
  } else {
    s.options.fleet = parse_fleet_spec("2xbaseline,1x2x-bw");
  }

  const SchedulingPolicy policies[] = {SchedulingPolicy::kFifo, SchedulingPolicy::kSjf,
                                       SchedulingPolicy::kDynamicBatch,
                                       SchedulingPolicy::kAffinity};
  s.options.policy = policies[prng.uniform_u64(4)];

  if (prng.uniform_u64(2) == 1) {
    s.options.classes = parse_class_spec("interactive:3:4:1,bulk:0:1:0");
  }

  s.options.limits.batch_window = ms_to_cycles(0.05 + 0.2 * prng.uniform(), 1.0);
  s.options.limits.max_batch = 4 + prng.uniform_u64(12);
  if (prng.uniform_u64(3) == 0) {
    s.options.queue_capacity = 4 + prng.uniform_u64(12);
  }
  if (prng.uniform_u64(3) == 0) {
    s.options.default_slo_ms = 0.5 + 2.0 * prng.uniform();
  }

  const double rates[] = {2000.0, 8000.0, 20000.0};
  s.rate_rps = rates[prng.uniform_u64(3)];
  s.num_requests = 60 + prng.uniform_u64(60);
  s.workload_seed = 1000 + seed;

  std::ostringstream os;
  os << "seed=" << seed << " fleet=" << fleet_pick << " policy="
     << policy_name(s.options.policy) << " tiers=" << s.options.classes.size()
     << " rate=" << s.rate_rps << " n=" << s.num_requests
     << " qcap=" << s.options.queue_capacity << " slo=" << s.options.default_slo_ms;
  s.description = os.str();
  return s;
}

std::vector<RequestTemplate> scenario_mix(const Scenario& s) {
  std::vector<RequestTemplate> mix;
  for (const gnn::LayerKind kind : {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
    RequestTemplate t;
    t.sim = timing_sim("cora", kind);
    if (!s.options.classes.empty()) {
      t.klass = s.options.classes[mix.size() % s.options.classes.size()].name;
    }
    mix.push_back(std::move(t));
  }
  return mix;
}

ServeReport run_scenario(const Scenario& s) {
  Server server(s.options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  PoissonWorkload workload(scenario_mix(s), s.rate_rps, s.num_requests,
                           s.options.clock_ghz, s.workload_seed);
  return server.serve(workload);
}

/// Sorted, disjoint busy intervals of one device.
using Intervals = std::vector<std::pair<Cycle, Cycle>>;

std::vector<Intervals> device_busy_intervals(const ServeReport& report) {
  std::vector<Intervals> busy(report.devices.size());
  for (const Outcome& outcome : report.outcomes) {
    if (outcome.shed || outcome.completion == outcome.dispatch) {
      continue;
    }
    busy[outcome.device].emplace_back(outcome.dispatch, outcome.completion);
  }
  for (Intervals& intervals : busy) {
    std::sort(intervals.begin(), intervals.end());
    // Coalesce (batched requests share their interval exactly).
    Intervals merged;
    for (const auto& iv : intervals) {
      if (!merged.empty() && iv.first <= merged.back().second) {
        merged.back().second = std::max(merged.back().second, iv.second);
      } else {
        merged.push_back(iv);
      }
    }
    intervals = std::move(merged);
  }
  return busy;
}

/// True when [from, to) is fully covered by `intervals`.
bool covered(const Intervals& intervals, Cycle from, Cycle to) {
  if (from >= to) {
    return true;
  }
  Cycle cursor = from;
  for (const auto& [start, end] : intervals) {
    if (start > cursor) {
      return false;
    }
    if (end > cursor) {
      cursor = end;
      if (cursor >= to) {
        return true;
      }
    }
  }
  return false;
}

/// Union coverage across all devices (for the affinity "fleet never fully
/// idle while work waits" rule).
bool covered_by_any(const std::vector<Intervals>& busy, Cycle from, Cycle to) {
  if (from >= to) {
    return true;
  }
  Intervals merged;
  for (const Intervals& intervals : busy) {
    merged.insert(merged.end(), intervals.begin(), intervals.end());
  }
  std::sort(merged.begin(), merged.end());
  Intervals coalesced;
  for (const auto& iv : merged) {
    if (!coalesced.empty() && iv.first <= coalesced.back().second) {
      coalesced.back().second = std::max(coalesced.back().second, iv.second);
    } else {
      coalesced.push_back(iv);
    }
  }
  return covered(coalesced, from, to);
}

void check_invariants(const Scenario& s, const ServeReport& report) {
  SCOPED_TRACE(s.description);
  ASSERT_EQ(report.outcomes.size(), s.num_requests);

  // ---- Causality + shed integrity ---------------------------------------
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::size_t failed = 0;
  for (const Outcome& outcome : report.outcomes) {
    EXPECT_FALSE(outcome.shed && outcome.failed)
        << "request " << outcome.id << " is both shed and failed";
    if (outcome.shed || outcome.failed) {
      outcome.failed ? ++failed : ++shed;
      EXPECT_EQ(outcome.result, nullptr) << "lost request " << outcome.id << " has a result";
      EXPECT_EQ(outcome.service_cycles, 0u)
          << "lost request " << outcome.id << " occupied a device";
      EXPECT_EQ(outcome.completion, outcome.dispatch);
      EXPECT_GE(outcome.completion, outcome.arrival);
      continue;
    }
    ++completed;
    EXPECT_GE(outcome.dispatch, outcome.arrival) << "request " << outcome.id;
    EXPECT_GE(outcome.completion, outcome.arrival) << "request " << outcome.id;
    EXPECT_EQ(outcome.completion, outcome.dispatch + outcome.service_cycles)
        << "request " << outcome.id << ": completion != dispatch + service";
    EXPECT_LT(outcome.device, report.devices.size());
    EXPECT_GE(outcome.batch_size, 1u);
    EXPECT_FALSE(outcome.class_key.empty());
    EXPECT_FALSE(outcome.klass.empty());
  }

  // ---- Accounting --------------------------------------------------------
  EXPECT_EQ(report.metrics.completed, completed);
  EXPECT_EQ(report.metrics.shed, shed);
  EXPECT_EQ(report.metrics.failed, failed);
  EXPECT_EQ(completed + shed + failed, report.outcomes.size());
  std::size_t class_completed = 0;
  std::size_t class_shed = 0;
  std::size_t class_failed = 0;
  std::map<std::string, std::size_t> seen_names;
  for (const ClassMetricsSummary& c : report.metrics.classes) {
    class_completed += c.completed;
    class_shed += c.shed;
    class_failed += c.failed;
    ++seen_names[c.name];
  }
  EXPECT_EQ(class_completed, completed) << "per-class completed do not sum to the total";
  EXPECT_EQ(class_shed, shed) << "per-class shed do not sum to the total";
  EXPECT_EQ(class_failed, failed) << "per-class failed do not sum to the total";
  for (const auto& [name, count] : seen_names) {
    EXPECT_EQ(count, 1u) << "duplicate class '" << name << "' in the breakdown";
  }

  // ---- Work conservation -------------------------------------------------
  const std::vector<Intervals> busy = device_busy_intervals(report);
  for (const Outcome& outcome : report.outcomes) {
    if (outcome.shed || outcome.failed || outcome.dispatch == outcome.arrival) {
      continue;
    }
    switch (s.options.policy) {
      case SchedulingPolicy::kFifo:
      case SchedulingPolicy::kSjf:
        // Strict: while this request waited, every device was busy.
        for (std::size_t d = 0; d < busy.size(); ++d) {
          EXPECT_TRUE(covered(busy[d], outcome.arrival, outcome.dispatch))
              << "device " << d << " idled while request " << outcome.id << " waited ["
              << outcome.arrival << ", " << outcome.dispatch << ")";
        }
        break;
      case SchedulingPolicy::kDynamicBatch: {
        // A request may wait out its batching window; past it, no device
        // may idle.
        const Cycle ripe_at = outcome.arrival + s.options.limits.batch_window;
        for (std::size_t d = 0; d < busy.size(); ++d) {
          EXPECT_TRUE(covered(busy[d], ripe_at, outcome.dispatch))
              << "device " << d << " idled while request " << outcome.id
              << " waited past its batching window";
        }
        break;
      }
      case SchedulingPolicy::kAffinity:
        // Affinity may hold a request for a busy preferred device, but the
        // fleet can never be *fully* idle while work waits.
        EXPECT_TRUE(covered_by_any(busy, outcome.arrival, outcome.dispatch))
            << "whole fleet idled while request " << outcome.id << " waited";
        break;
    }
  }
}

std::string report_fingerprint(const ServeReport& report) {
  std::ostringstream os;
  os << report.format() << '\n' << report.end_cycle;
  for (const Outcome& o : report.outcomes) {
    os << '\n'
       << o.id << ',' << o.arrival << ',' << o.dispatch << ',' << o.completion << ','
       << o.device << ',' << o.batch_size << ',' << o.shed << ',' << o.failed << ','
       << o.retries << ',' << o.requeues << ',' << o.service_cycles << ','
       << o.applied_slo_ms << ',' << o.klass << ',' << o.class_key;
  }
  for (const ClassMetricsSummary& c : report.metrics.classes) {
    os << '\n'
       << c.name << ',' << c.completed << ',' << c.shed << ',' << c.failed << ','
       << c.p50_ms << ',' << c.p95_ms << ',' << c.p99_ms << ',' << c.slo_attainment;
  }
  return os.str();
}

/// FNV-1a of a report fingerprint as 16 hex digits. The ServeDifferential
/// goldens below pin the bytes both loops share (class keys, pricing,
/// metrics formatting), which a loop-vs-loop comparison cannot see move.
std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << hash;
  return os.str();
}

/// The harness: every seeded scenario upholds every invariant, and two
/// replays of the same scenario produce byte-identical reports.
TEST(ServeProperty, RandomScenariosUpholdInvariants) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Scenario s = draw_scenario(seed);
    SCOPED_TRACE(s.description);
    const ServeReport report = run_scenario(s);
    check_invariants(s, report);
    const ServeReport replay = run_scenario(s);
    EXPECT_EQ(report_fingerprint(report), report_fingerprint(replay))
        << "two seeded replays diverged";
  }
}

/// Differential: a heterogeneous fleet whose device classes are all
/// identical to the default (Table IV) config must reproduce the
/// homogeneous Server's completion records bitwise, for every policy.
TEST(ServeProperty, IdenticalClassFleetMatchesHomogeneousBitwise) {
  for (const SchedulingPolicy policy :
       {SchedulingPolicy::kFifo, SchedulingPolicy::kSjf, SchedulingPolicy::kDynamicBatch,
        SchedulingPolicy::kAffinity}) {
    SCOPED_TRACE(std::string(policy_name(policy)));

    struct Run {
      ServeReport report;
      std::size_t oracle_runs = 0;
    };
    const auto run = [&](bool heterogeneous) {
      ServerOptions options;
      options.policy = policy;
      options.limits.batch_window = ms_to_cycles(0.1, options.clock_ghz);
      options.default_slo_ms = 1.5;
      if (heterogeneous) {
        // Two classes, both the default config: the class-aware machinery
        // (key substitution, clock conversion, per-class memoization) must
        // degrade to an exact no-op.
        DeviceClass a = *find_device_class("baseline");
        a.name = "a";
        a.count = 2;
        DeviceClass b = *find_device_class("baseline");
        b.name = "b";
        b.count = 1;
        options.fleet = {a, b};
      } else {
        options.num_devices = 3;
      }
      Server server(options);
      server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
      std::vector<RequestTemplate> mix;
      for (const gnn::LayerKind kind :
           {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
        RequestTemplate t;
        t.sim = timing_sim("cora", kind);
        mix.push_back(std::move(t));
      }
      PoissonWorkload workload(mix, /*rate_rps=*/15000.0, /*num_requests=*/200,
                               options.clock_ghz, /*seed=*/77);
      ServeReport report = server.serve(workload);
      return Run{std::move(report), server.cost_oracle_runs()};
    };

    const Run homogeneous_run = run(false);
    const Run heterogeneous_run = run(true);
    const ServeReport& homogeneous = homogeneous_run.report;
    const ServeReport& heterogeneous = heterogeneous_run.report;
    // Identically configured classes share one execution per plan class:
    // a second engine run (a plan-cache hit) or a second analytic pricing
    // would mean the memos split by device class rather than by config.
    EXPECT_EQ(homogeneous.plan_cache.hits, heterogeneous.plan_cache.hits);
    EXPECT_EQ(homogeneous.plan_cache.misses, heterogeneous.plan_cache.misses);
    EXPECT_EQ(homogeneous_run.oracle_runs, heterogeneous_run.oracle_runs);
    ASSERT_EQ(homogeneous.outcomes.size(), heterogeneous.outcomes.size());
    EXPECT_EQ(homogeneous.end_cycle, heterogeneous.end_cycle);
    for (std::size_t i = 0; i < homogeneous.outcomes.size(); ++i) {
      const Outcome& x = homogeneous.outcomes[i];
      const Outcome& y = heterogeneous.outcomes[i];
      SCOPED_TRACE("request " + std::to_string(i));
      EXPECT_EQ(x.id, y.id);
      EXPECT_EQ(x.arrival, y.arrival);
      EXPECT_EQ(x.dispatch, y.dispatch);
      EXPECT_EQ(x.completion, y.completion);
      EXPECT_EQ(x.device, y.device);
      EXPECT_EQ(x.batch_size, y.batch_size);
      EXPECT_EQ(x.shed, y.shed);
      EXPECT_EQ(x.service_cycles, y.service_cycles);
      EXPECT_EQ(x.class_key, y.class_key);
      EXPECT_EQ(x.klass, y.klass);
      EXPECT_EQ(x.applied_slo_ms, y.applied_slo_ms);
    }
    EXPECT_EQ(homogeneous.metrics.completed, heterogeneous.metrics.completed);
    EXPECT_EQ(homogeneous.metrics.shed, heterogeneous.metrics.shed);
    EXPECT_EQ(homogeneous.metrics.p50_ms, heterogeneous.metrics.p50_ms);
    EXPECT_EQ(homogeneous.metrics.p95_ms, heterogeneous.metrics.p95_ms);
    EXPECT_EQ(homogeneous.metrics.p99_ms, heterogeneous.metrics.p99_ms);
  }
}

/// The differential matrix for the serving event loop: every policy x fleet
/// shape must reproduce the trusted Server::run_reference loop *byte for
/// byte* — completion records, metrics at reporting precision, plan-cache
/// counters, queue depth, event counts, everything report_fingerprint folds
/// in — and the committed golden. Fresh servers per run: the plan cache and
/// memos staying warm across calls is part of the report, so the two paths
/// may only be compared from equal starting states.
TEST(ServeDifferential, PipelineMatchesReferenceAcrossPoliciesAndFleets) {
  const SchedulingPolicy policies[] = {SchedulingPolicy::kFifo, SchedulingPolicy::kSjf,
                                       SchedulingPolicy::kDynamicBatch,
                                       SchedulingPolicy::kAffinity};
  // Per (policy, fleet) cell, in loop order.
  const char* const golden[] = {
      "2f2a5a7b265efe1f", "68afd4bd087750a9", "1703d867a288886e", "d94b7120b6ace6d6",
      "1bc24e212074ac82", "411628bbea5eaa20", "7fd267cd655396ca", "e96ac4f70846eb4e"};
  std::size_t cell = 0;
  std::uint64_t seed = 500;
  for (const SchedulingPolicy policy : policies) {
    for (const bool mixed_fleet : {false, true}) {
      ServerOptions options;
      options.policy = policy;
      options.limits.batch_window = ms_to_cycles(0.1, options.clock_ghz);
      options.limits.max_batch = 8;
      options.default_slo_ms = 1.5;  // exercises dispatch-time shedding
      options.queue_capacity = 24;   // .. and admission-time shedding
      if (mixed_fleet) {
        options.fleet = parse_fleet_spec("2xbaseline,1xnextgen");
      } else {
        options.num_devices = 3;
      }
      ++seed;

      const auto run = [&](bool reference) {
        Server server(options);
        server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
        std::vector<RequestTemplate> mix;
        for (const gnn::LayerKind kind :
             {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
          RequestTemplate t;
          t.sim = timing_sim("cora", kind);
          mix.push_back(std::move(t));
        }
        PoissonWorkload workload(mix, /*rate_rps=*/15000.0, /*num_requests=*/150,
                                 options.clock_ghz, seed);
        return reference ? server.run_reference(workload) : server.serve(workload);
      };

      SCOPED_TRACE(std::string(policy_name(policy)) +
                   (mixed_fleet ? " mixed-fleet" : " homogeneous"));
      const std::string expected = report_fingerprint(run(/*reference=*/true));
      EXPECT_EQ(fnv1a_hex(expected), golden[cell++]) << "report moved from the golden";
      EXPECT_EQ(report_fingerprint(run(/*reference=*/false)), expected)
          << "serve() diverged from run_reference";
    }
  }
}

/// Fault plans are part of the determinism contract: a random schedule of
/// crash/slow/recover events (optionally with an autoscaler on top) must
/// produce the identical report from the trusted reference loop and from
/// serve() — aborts, requeues, backoff, retry exhaustion, fleet mutations
/// and all. Every run must also conserve requests: completed + shed +
/// failed == submitted, one record per id.
TEST(ServeDifferential, RandomFaultPlansMatchReference) {
  const SchedulingPolicy policies[] = {SchedulingPolicy::kFifo, SchedulingPolicy::kSjf,
                                       SchedulingPolicy::kDynamicBatch,
                                       SchedulingPolicy::kAffinity};
  // Per seed, 900..905.
  const char* const golden[] = {
      "ce3edc4e4429c3c1", "cad7c9d016c1547c", "888331b84cdf590c", "5c2b93ffcecaea7c",
      "94b33f4245a0a320", "695929e6391ea1b1"};
  for (std::uint64_t seed = 900; seed < 906; ++seed) {
    util::Prng prng(seed);
    ServerOptions options;
    options.num_devices = 3;
    options.policy = policies[prng.uniform_u64(4)];
    options.limits.batch_window = ms_to_cycles(0.1, options.clock_ghz);
    options.limits.max_batch = 8;
    options.default_slo_ms = 2.0 + 3.0 * prng.uniform();
    options.retry_budget = 1 + static_cast<std::uint32_t>(prng.uniform_u64(3));

    // 2-5 random fault events over the expected span of the run. Crashing
    // an already-crashed device or recovering a healthy one is legal (and
    // must be deterministic), so events are drawn with no consistency
    // constraints at all.
    const double span_ms = 12.0;
    std::ostringstream plan;
    const std::size_t num_events = 2 + prng.uniform_u64(4);
    for (std::size_t e = 0; e < num_events; ++e) {
      const double at_ms = span_ms * prng.uniform();
      const std::size_t dev = prng.uniform_u64(options.num_devices);
      if (e > 0) {
        plan << ',';
      }
      switch (prng.uniform_u64(3)) {
        case 0:
          plan << "crash@" << at_ms << "ms:dev" << dev;
          break;
        case 1:
          plan << "recover@" << at_ms << "ms:dev" << dev;
          break;
        default:
          plan << "slow@" << at_ms << "ms:dev" << dev << "x"
               << 0.3 + 0.6 * prng.uniform();
          break;
      }
    }
    options.faults = parse_fault_plan(plan.str(), options.clock_ghz);
    if (prng.uniform_u64(2) == 1) {
      AutoscalerOptions scaler;
      scaler.min_devices = 2;
      scaler.max_devices = 5;
      scaler.target_p95_ms = options.default_slo_ms * 0.8;
      options.autoscale = scaler;
    }
    const std::size_t num_requests = 80 + prng.uniform_u64(60);

    const auto run = [&](bool reference) {
      Server server(options);
      server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
      std::vector<RequestTemplate> mix;
      for (const gnn::LayerKind kind : {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
        RequestTemplate t;
        t.sim = timing_sim("cora", kind);
        mix.push_back(std::move(t));
      }
      PoissonWorkload workload(mix, /*rate_rps=*/10'000.0, num_requests, options.clock_ghz,
                               seed * 13);
      return reference ? server.run_reference(workload) : server.serve(workload);
    };

    SCOPED_TRACE("seed=" + std::to_string(seed) + " plan=" + plan.str() +
                 " policy=" + std::string(policy_name(options.policy)) +
                 " autoscale=" + (options.autoscale ? "y" : "n"));
    const ServeReport expected_report = run(/*reference=*/true);
    const std::string expected = report_fingerprint(expected_report);
    EXPECT_EQ(fnv1a_hex(expected), golden[seed - 900]) << "report moved from the golden";
    EXPECT_EQ(expected_report.metrics.completed + expected_report.metrics.shed +
                  expected_report.metrics.failed,
              num_requests)
        << "reference run lost requests";
    EXPECT_EQ(expected_report.outcomes.size(), num_requests);
    const ServeReport got = run(/*reference=*/false);
    EXPECT_EQ(report_fingerprint(got), expected)
        << "serve() diverged from run_reference under a fault plan";
    EXPECT_EQ(got.metrics.completed + got.metrics.shed + got.metrics.failed, num_requests);
  }
}

/// Mid-run reclass faults switch a device to a device class the fleet has
/// not used yet, so the per-class memos gain a slot while work is queued
/// and in flight; a crash and recover strand and requeue work around it.
/// Both loops must match each other and the committed goldens: the report
/// and the cost oracle's end state.
TEST(ServeDifferential, ReclassFaultPlansMatchReference) {
  const SchedulingPolicy policies[] = {SchedulingPolicy::kAffinity, SchedulingPolicy::kSjf,
                                       SchedulingPolicy::kFifo};
  // Per policy: (report, oracle state).
  const char* const golden[][2] = {{"939a9e8cad0bddb1", "3e4df04c6716987d"},
                                   {"14711b4f240648f2", "0956cee7b9dfbc9b"},
                                   {"17f629ddd2bd1e88", "0956cee7b9dfbc9b"}};
  std::size_t cell = 0;
  for (const SchedulingPolicy policy : policies) {
    ServerOptions options;
    options.policy = policy;
    options.fleet = parse_fleet_spec("2xbaseline,1xnextgen");
    options.classes = parse_class_spec("interactive:3:4:1,bulk:0:1:0");
    options.faults = parse_fault_plan(
        "reclass@1ms:dev1=2x-dense,reclass@3ms:dev2=baseline,crash@4ms:dev0,"
        "recover@5ms:dev0,reclass@6ms:dev1=nextgen",
        options.clock_ghz);

    const auto run = [&](bool reference) {
      Server server(options);
      server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
      server.add_dataset(graph::make_dataset_by_name("citeseer", 1, /*with_features=*/false));
      std::vector<RequestTemplate> mix;
      for (const char* dataset : {"cora", "citeseer"}) {
        for (const gnn::LayerKind kind : {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
          RequestTemplate t;
          t.sim = timing_sim(dataset, kind);
          t.klass = mix.size() % 2 == 0 ? "interactive" : "bulk";
          mix.push_back(std::move(t));
        }
      }
      PoissonWorkload workload(mix, /*rate_rps=*/9000.0, /*num_requests=*/150,
                               options.clock_ghz, /*seed=*/31);
      const ServeReport report =
          reference ? server.run_reference(workload) : server.serve(workload);
      EXPECT_EQ(report.metrics.completed + report.metrics.shed + report.metrics.failed, 150u);
      std::ostringstream oracle;
      oracle << std::hex << std::setw(16) << std::setfill('0')
             << server.cost_oracle().state_fingerprint();
      return std::pair{report_fingerprint(report), oracle.str()};
    };

    SCOPED_TRACE(std::string(policy_name(policy)));
    const auto [expected, expected_oracle] = run(/*reference=*/true);
    EXPECT_EQ(fnv1a_hex(expected), golden[cell][0]) << "report moved from the golden";
    EXPECT_EQ(expected_oracle, golden[cell][1]) << "oracle state moved from the golden";
    const auto [got, got_oracle] = run(/*reference=*/false);
    EXPECT_EQ(got, expected) << "serve() diverged from run_reference under reclass faults";
    EXPECT_EQ(got_oracle, expected_oracle);
    ++cell;
  }
}

/// Closed-loop feedback is the hardest ordering case: every completion
/// re-arms a client through the workload's PRNG, so any reordering of
/// completion records (or of feedback vs streamed arrivals at equal
/// cycles) changes the RNG draw sequence and cascades through the rest of
/// the run. serve() must replay it exactly, with SLO tiers on a
/// heterogeneous fleet for good measure.
TEST(ServeDifferential, ClosedLoopFeedbackMatchesReference) {
  ServerOptions options;
  options.policy = SchedulingPolicy::kSjf;
  options.fleet = parse_fleet_spec("1xbaseline,1xnextgen");
  options.classes = parse_class_spec("interactive:3:4:1,bulk:0:1:0");
  options.default_slo_ms = 2.0;

  const auto run = [&](bool reference) {
    Server server(options);
    server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
    std::vector<RequestTemplate> mix;
    for (const gnn::LayerKind kind : {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
      RequestTemplate t;
      t.sim = timing_sim("cora", kind);
      t.klass = mix.empty() ? "interactive" : "bulk";
      mix.push_back(std::move(t));
    }
    // Workloads are stateful (PRNG advances on every feedback) — a fresh
    // instance per run, same seed.
    ClosedLoopWorkload workload(mix, /*num_clients=*/6, /*total_requests=*/120,
                                /*think_ms=*/0.3, options.clock_ghz, /*seed=*/4242);
    return reference ? server.run_reference(workload) : server.serve(workload);
  };

  const std::string expected = report_fingerprint(run(/*reference=*/true));
  EXPECT_EQ(fnv1a_hex(expected), "bf1af893eb80452c") << "report moved from the golden";
  EXPECT_EQ(report_fingerprint(run(/*reference=*/false)), expected);
}

/// Terminal starvation: every device crashes while work is queued, and no
/// recover event or autoscaler can ever bring capacity back. The loop must
/// fail the stranded queue (Server::fail_stranded, which drains it through
/// the policy's own pop — the only caller of AffinityScheduler::pop) rather
/// than stall or drop it, and both loops must match each other and the
/// committed goldens.
TEST(ServeDifferential, StrandedQueueFailsWhenEveryDeviceCrashes) {
  const SchedulingPolicy policies[] = {SchedulingPolicy::kFifo, SchedulingPolicy::kSjf,
                                       SchedulingPolicy::kDynamicBatch,
                                       SchedulingPolicy::kAffinity};
  // Per policy, in loop order.
  const char* const golden[] = {"7c1fcc2ceebbb06e", "a42b73435d736126", "a8b9fd6d54d63cd8",
                                "ab7c50146bc19aec"};
  const std::size_t num_requests = 120;
  std::size_t cell = 0;
  for (const SchedulingPolicy policy : policies) {
    ServerOptions options;
    options.fleet = parse_fleet_spec("1xbaseline,1xnextgen");
    options.policy = policy;
    options.limits.batch_window = ms_to_cycles(0.1, options.clock_ghz);
    options.limits.max_batch = 8;
    options.faults = parse_fault_plan("crash@1ms:dev0,crash@1ms:dev1", options.clock_ghz);
    const Cycle crash_at = ms_to_cycles(1.0, options.clock_ghz);

    const auto run = [&](bool reference) {
      Server server(options);
      server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
      std::vector<RequestTemplate> mix;
      for (const gnn::LayerKind kind : {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
        RequestTemplate t;
        t.sim = timing_sim("cora", kind);
        mix.push_back(std::move(t));
      }
      PoissonWorkload workload(mix, /*rate_rps=*/20'000.0, num_requests, options.clock_ghz,
                               /*seed=*/77);
      return reference ? server.run_reference(workload) : server.serve(workload);
    };

    SCOPED_TRACE(std::string(policy_name(policy)));
    const ServeReport report = run(/*reference=*/true);
    const std::string expected = report_fingerprint(report);
    EXPECT_EQ(fnv1a_hex(expected), golden[cell++]) << "report moved from the golden";
    // Conservation: one record per request, each completed or failed (no
    // SLO and no queue bound, so nothing is shed).
    EXPECT_EQ(report.outcomes.size(), num_requests);
    EXPECT_EQ(report.metrics.completed + report.metrics.failed, num_requests);
    EXPECT_EQ(report.metrics.shed, 0u);
    // Every request that had not completed by the crash is failed, at the
    // drain: none completes afterwards. Some of them were never dispatched
    // (retries 0), which only the drain can fail.
    std::size_t never_dispatched = 0;
    for (const Outcome& o : report.outcomes) {
      if (o.failed) {
        EXPECT_GE(o.completion, crash_at) << "request " << o.id;
        EXPECT_EQ(o.dispatch, o.completion) << "request " << o.id;
        never_dispatched += o.retries == 0 ? 1 : 0;
      } else {
        EXPECT_LE(o.completion, crash_at) << "request " << o.id << " completed on a dead fleet";
      }
    }
    EXPECT_GT(never_dispatched, 0u);
    EXPECT_EQ(report_fingerprint(run(/*reference=*/false)), expected)
        << "serve() diverged from run_reference on a stranded queue";
  }
}

/// The cost oracle memoizes per (plan class, device class): however many
/// requests stream through, the analytic compiler pipeline runs exactly
/// once per distinct pair — flat in trace length, across serve() calls,
/// and identical between the pipeline and the reference loop.
TEST(ServeCostOracle, PipelineRunsOncePerPlanAndDeviceClass) {
  const auto make_mix = [] {
    std::vector<RequestTemplate> mix;
    for (const gnn::LayerKind kind : {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
      RequestTemplate t;
      t.sim = timing_sim("cora", kind);
      mix.push_back(std::move(t));
    }
    return mix;
  };

  // Homogeneous SJF: one run per plan class, flat in request count.
  {
    ServerOptions options;
    options.num_devices = 2;
    options.policy = SchedulingPolicy::kSjf;
    Server server(options);
    server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
    PoissonWorkload small(make_mix(), 8000.0, 40, options.clock_ghz, 9);
    (void)server.serve(small);
    EXPECT_EQ(server.cost_oracle_runs(), 2u);
    PoissonWorkload large(make_mix(), 8000.0, 400, options.clock_ghz, 10);
    (void)server.serve(large);
    EXPECT_EQ(server.cost_oracle_runs(), 2u)
        << "a 10x longer trace re-ran the analytic pipeline";
  }

  // Affinity on a two-class fleet: the canonical key is the first class's
  // config, so its estimates share the canonical memo entry and only the
  // second class adds one — 2 plan classes x 2 distinct configs = 4 runs.
  {
    ServerOptions options;
    options.fleet = parse_fleet_spec("1xbaseline,1xnextgen");
    options.policy = SchedulingPolicy::kAffinity;
    Server server(options);
    server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
    PoissonWorkload workload(make_mix(), 8000.0, 120, options.clock_ghz, 11);
    (void)server.serve(workload);
    EXPECT_EQ(server.cost_oracle_runs(), 4u);
    PoissonWorkload again(make_mix(), 8000.0, 240, options.clock_ghz, 12);
    (void)server.serve(again);
    EXPECT_EQ(server.cost_oracle_runs(), 4u);
  }

  // The reference loop prices identically (differential on the counter).
  {
    ServerOptions options;
    options.num_devices = 2;
    options.policy = SchedulingPolicy::kSjf;
    Server server(options);
    server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
    PoissonWorkload workload(make_mix(), 8000.0, 40, options.clock_ghz, 9);
    (void)server.run_reference(workload);
    EXPECT_EQ(server.cost_oracle_runs(), 2u);
  }
}

/// Per-class percentiles from a tiered serve equal a brute-force sort of
/// that class's raw latency vector (exact regime).
TEST(ServeProperty, PerClassPercentilesMatchBruteForce) {
  ServerOptions options;
  options.num_devices = 2;
  options.policy = SchedulingPolicy::kFifo;
  options.classes = parse_class_spec("interactive:0:4:1,bulk:0:1:0");
  Server server(options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));

  std::vector<RequestTemplate> mix;
  for (const gnn::LayerKind kind : {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
    for (const char* klass : {"interactive", "bulk"}) {
      RequestTemplate t;
      t.sim = timing_sim("cora", kind);
      t.klass = klass;
      mix.push_back(std::move(t));
    }
  }
  PoissonWorkload workload(mix, /*rate_rps=*/9000.0, /*num_requests=*/180,
                           options.clock_ghz, /*seed=*/321);
  const ServeReport report = server.serve(workload);
  ASSERT_EQ(report.metrics.completed, 180u);
  ASSERT_EQ(report.metrics.classes.size(), 2u);

  std::map<std::string, std::vector<double>> latencies;
  for (const Outcome& outcome : report.outcomes) {
    latencies[outcome.klass].push_back(outcome.latency_ms(options.clock_ghz));
  }
  const auto brute = [](std::vector<double> values, double q) {
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
  };
  for (const ClassMetricsSummary& c : report.metrics.classes) {
    SCOPED_TRACE(c.name);
    ASSERT_TRUE(latencies.contains(c.name));
    const std::vector<double>& raw = latencies.at(c.name);
    EXPECT_EQ(c.completed, raw.size());
    EXPECT_DOUBLE_EQ(c.p50_ms, brute(raw, 0.50));
    EXPECT_DOUBLE_EQ(c.p95_ms, brute(raw, 0.95));
    EXPECT_DOUBLE_EQ(c.p99_ms, brute(raw, 0.99));
  }
}

/// Per-class quantile edge regimes on the Metrics aggregator directly: a
/// class with fewer samples than the interpolation needs (exact path) and
/// a class pushed past the reservoir bound (deterministic estimate).
TEST(ServeProperty, PerClassQuantileEdgeRegimes) {
  const auto outcome_with = [](std::uint64_t id, const char* klass, Cycle latency_cycles) {
    Outcome o;
    o.id = id;
    o.klass = klass;
    o.arrival = 0;
    o.dispatch = 0;
    o.completion = latency_cycles;
    return o;
  };

  constexpr std::size_t kBound = 64;
  Metrics metrics(/*clock_ghz=*/1.0, /*quantile_bound=*/kBound);
  Metrics twin(/*clock_ghz=*/1.0, /*quantile_bound=*/kBound);

  // Class "tiny": 3 samples — the exact path with < k samples.
  std::vector<double> tiny_ms;
  for (std::uint64_t i = 0; i < 3; ++i) {
    const Cycle cycles = (i + 1) * 2000;
    metrics.add(outcome_with(i, "tiny", cycles));
    twin.add(outcome_with(i, "tiny", cycles));
    tiny_ms.push_back(cycles_to_ms(cycles, 1.0));
  }
  // Class "big": 10x the reservoir bound — the estimator degrades to the
  // deterministic reservoir.
  std::vector<double> big_ms;
  util::Prng prng(9);
  for (std::uint64_t i = 0; i < 10 * kBound; ++i) {
    const Cycle cycles = 1000 + static_cast<Cycle>(prng.uniform() * 1e6);
    metrics.add(outcome_with(100 + i, "big", cycles));
    twin.add(outcome_with(100 + i, "big", cycles));
    big_ms.push_back(cycles_to_ms(cycles, 1.0));
  }

  const MetricsSummary summary = metrics.summary(/*end_cycle=*/2'000'000);
  const MetricsSummary twin_summary = twin.summary(/*end_cycle=*/2'000'000);
  ASSERT_EQ(summary.classes.size(), 2u);
  const ClassMetricsSummary& big = summary.classes[0];
  const ClassMetricsSummary& tiny = summary.classes[1];
  ASSERT_EQ(big.name, "big");
  ASSERT_EQ(tiny.name, "tiny");

  // Exact path: interpolated order statistics of the 3 raw samples.
  std::sort(tiny_ms.begin(), tiny_ms.end());
  EXPECT_DOUBLE_EQ(tiny.p50_ms, tiny_ms[1]);
  EXPECT_DOUBLE_EQ(tiny.p95_ms, tiny_ms[1] + 0.9 * (tiny_ms[2] - tiny_ms[1]));
  EXPECT_DOUBLE_EQ(tiny.p99_ms, tiny_ms[1] + 0.98 * (tiny_ms[2] - tiny_ms[1]));

  // Reservoir regime: deterministic (identical across instances) and a
  // sane estimate of the true quantiles.
  EXPECT_DOUBLE_EQ(big.p50_ms, twin_summary.classes[0].p50_ms);
  EXPECT_DOUBLE_EQ(big.p95_ms, twin_summary.classes[0].p95_ms);
  EXPECT_DOUBLE_EQ(big.p99_ms, twin_summary.classes[0].p99_ms);
  std::sort(big_ms.begin(), big_ms.end());
  const double true_p50 = big_ms[big_ms.size() / 2];
  const double spread = big_ms.back() - big_ms.front();
  EXPECT_NEAR(big.p50_ms, true_p50, 0.25 * spread);
  EXPECT_GT(big.p95_ms, big.p50_ms);
  EXPECT_GE(big.p99_ms, big.p95_ms);
}

/// Sampled mini-batch serving joins the determinism contract: sampled
/// workloads (per-request seed vertex + fanout) with mixed-batch fusion and
/// the pre-sampling feature cache enabled must reproduce the trusted
/// reference loop byte for byte — the fused batch compositions, the cache
/// counters the report folds in, and the per-seed outputs scattered out of
/// fused device passes. Every run must
/// also conserve requests: completed + shed + failed == submitted, in the
/// totals and per request class.
TEST(ServeDifferential, SampledWorkloadsMatchReference) {
  const SchedulingPolicy policies[] = {SchedulingPolicy::kFifo, SchedulingPolicy::kSjf,
                                       SchedulingPolicy::kDynamicBatch,
                                       SchedulingPolicy::kAffinity};

  // Scattered per-seed outputs, bitwise (they ride outside report_fingerprint).
  const auto result_fingerprint = [](const ServeReport& report) {
    std::ostringstream os;
    for (const Outcome& o : report.outcomes) {
      os << o.id << ':';
      if (o.result != nullptr && o.result->output.has_value()) {
        os << o.result->output->rows() << 'x' << o.result->output->cols();
        for (std::size_t r = 0; r < o.result->output->rows(); ++r) {
          for (const float v : o.result->output->row(r)) {
            std::uint32_t bits;
            std::memcpy(&bits, &v, sizeof(bits));
            os << ',' << bits;
          }
        }
      }
      os << ';';
    }
    return os.str();
  };

  // Per (policy, fleet) cell, in loop order.
  const char* const golden[] = {
      "b7ce935ef4f5a170", "7e9521c216a046f8", "6ee3758f06840abd", "86afd5188e70b9d5",
      "b2e1b5a8ac7fe871", "11a316ef32d1947b", "ec444ea1dd992e7e", "b9c5d52c9bc3055f"};
  std::size_t cell = 0;
  std::uint64_t seed = 900;
  for (const SchedulingPolicy policy : policies) {
    for (const bool mixed_fleet : {false, true}) {
      ServerOptions options;
      options.policy = policy;
      options.limits.batch_window = ms_to_cycles(0.1, options.clock_ghz);
      options.limits.max_batch = 8;
      options.default_slo_ms = 2.0;  // dispatch-time shedding shrinks fusions
      options.queue_capacity = 24;
      options.collect_results = true;  // exercise the fused-output scatter
      FeatureCacheOptions cache;
      cache.budget_bytes = 512 << 10;  // small enough to churn the LRU region
      options.feature_cache = cache;
      if (mixed_fleet) {
        options.fleet = parse_fleet_spec("2xbaseline,1xnextgen");
      } else {
        options.num_devices = 3;
      }
      if (policy == SchedulingPolicy::kSjf) {
        options.classes = parse_class_spec("interactive:3:4:1,bulk:0:1:0");
      }
      ++seed;

      const auto run = [&](bool reference) {
        Server server(options);
        const graph::Dataset& ds = server.add_dataset(
            graph::make_dataset_by_name("cora", 1, /*with_features=*/true));
        std::vector<SampledQueryWorkload::Entry> entries;
        for (const gnn::LayerKind kind : {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
          RequestTemplate t;
          t.sim = timing_sim("cora", kind);
          // Functional mode is a strict superset of timing (the timing
          // kernel still runs, cycles are identical) and materialises the
          // outputs the scatter assertions below need.
          t.sim.mode = core::SimMode::kFunctional;
          if (!options.classes.empty()) {
            t.klass = options.classes[entries.size() % options.classes.size()].name;
          }
          entries.push_back(SampledQueryWorkload::Entry{t, &ds, "6,4"});
        }
        SampledQueryWorkload workload(std::move(entries), /*rate_rps=*/15000.0,
                                      /*num_requests=*/120, options.clock_ghz, seed);
        const ServeReport report =
            reference ? server.run_reference(workload) : server.serve(workload);

        // Conservation, total and per class.
        EXPECT_EQ(report.metrics.completed + report.metrics.shed + report.metrics.failed,
                  report.outcomes.size());
        if (!report.metrics.classes.empty()) {
          std::size_t completed = 0;
          std::size_t shed = 0;
          std::size_t failed = 0;
          for (const ClassMetricsSummary& c : report.metrics.classes) {
            completed += c.completed;
            shed += c.shed;
            failed += c.failed;
          }
          EXPECT_EQ(completed, report.metrics.completed);
          EXPECT_EQ(shed, report.metrics.shed);
          EXPECT_EQ(failed, report.metrics.failed);
        }

        // Every completed sampled request scatters exactly its seed row out
        // of the (possibly fused) device pass.
        EXPECT_TRUE(report.feature_cache_enabled);
        std::size_t with_result = 0;
        for (const Outcome& outcome : report.outcomes) {
          if (outcome.shed || outcome.failed) {
            EXPECT_EQ(outcome.result, nullptr);
            continue;
          }
          EXPECT_NE(outcome.result, nullptr);
          if (outcome.result == nullptr || !outcome.result->output.has_value()) {
            ADD_FAILURE() << "completed sampled request " << outcome.id
                          << " carries no scattered output";
            continue;
          }
          EXPECT_EQ(outcome.result->output->rows(), 1u);
          ++with_result;
        }
        EXPECT_EQ(with_result, report.metrics.completed);
        return report;
      };

      SCOPED_TRACE(std::string(policy_name(policy)) +
                   (mixed_fleet ? " mixed-fleet" : " homogeneous"));
      const ServeReport expected = run(/*reference=*/true);
      const std::string expected_fp = report_fingerprint(expected);
      EXPECT_EQ(fnv1a_hex(expected_fp), golden[cell++]) << "report moved from the golden";
      const std::string expected_results = result_fingerprint(expected);
      EXPECT_GT(expected.feature_cache.hits + expected.feature_cache.misses, 0u);
      const ServeReport actual = run(/*reference=*/false);
      EXPECT_EQ(report_fingerprint(actual), expected_fp)
          << "sampled serve() diverged from run_reference";
      EXPECT_EQ(result_fingerprint(actual), expected_results)
          << "scattered per-seed outputs diverged from run_reference";
    }
  }
}

}  // namespace
}  // namespace gnnerator::serve
