// Fault-injection and elasticity tests for the serving subsystem: the
// fault-plan and autoscaler spec parsers (including the error messages'
// obligation to name the offending token and position), crash-mid-batch
// abort/requeue semantics, retry-budget exhaustion, recovery, runtime
// fleet mutation APIs, autoscaler bounds and device-hours accounting, and
// the request-conservation invariant every faulted run must uphold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "serve/autoscale.hpp"
#include "serve/faults.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "util/check.hpp"
#include "util/parse.hpp"

namespace gnnerator::serve {
namespace {

core::SimulationRequest timing_sim(const std::string& dataset, gnn::LayerKind kind) {
  core::SimulationRequest sim;
  sim.dataset = dataset;
  sim.model = core::table3_model(kind, *graph::find_dataset(dataset));
  sim.mode = core::SimMode::kTiming;
  return sim;
}

std::vector<RequestTemplate> cora_mix() {
  std::vector<RequestTemplate> mix;
  for (const gnn::LayerKind kind : {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
    RequestTemplate t;
    t.sim = timing_sim("cora", kind);
    mix.push_back(std::move(t));
  }
  return mix;
}

Server make_server(const ServerOptions& options) {
  Server server(options);
  server.add_dataset(graph::make_dataset_by_name("cora", 1, /*with_features=*/false));
  return server;
}

/// The message a throwing call produced, or "" if it did not throw.
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const util::CheckError& e) {
    return e.what();
  }
  return {};
}

// ---- Spec parsing ---------------------------------------------------------

TEST(FaultPlanParse, FullGrammarRoundTrips) {
  const FaultPlan plan = parse_fault_plan(
      "slow@1s:dev0x0.5, crash@500ms:dev2 ,recover@2s:dev2,reclass@2500us:dev1=nextgen",
      /*clock_ghz=*/1.0);
  ASSERT_EQ(plan.events.size(), 4u);
  // Sorted by time (spec order breaks ties), not spec order.
  EXPECT_EQ(plan.events[0].kind, FaultKind::kReclass);
  EXPECT_EQ(plan.events[0].at, ms_to_cycles(2.5, 1.0));
  EXPECT_EQ(plan.events[0].device, 1u);
  EXPECT_EQ(plan.events[0].klass, "nextgen");
  EXPECT_EQ(plan.events[1].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.events[1].at, ms_to_cycles(500.0, 1.0));
  EXPECT_EQ(plan.events[1].device, 2u);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kSlow);
  EXPECT_EQ(plan.events[2].at, ms_to_cycles(1000.0, 1.0));
  EXPECT_EQ(plan.events[2].device, 0u);
  EXPECT_DOUBLE_EQ(plan.events[2].factor, 0.5);
  EXPECT_EQ(plan.events[3].kind, FaultKind::kRecover);
  EXPECT_EQ(plan.events[3].at, ms_to_cycles(2000.0, 1.0));
}

TEST(FaultPlanParse, BareTimeIsMilliseconds) {
  const FaultPlan plan = parse_fault_plan("crash@3:dev0", /*clock_ghz=*/2.0);
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].at, ms_to_cycles(3.0, 2.0));
}

TEST(FaultPlanParse, ErrorsNameTheTokenAndPosition) {
  // Element 1 starts after "crash@1ms:dev0," — offset 15.
  const std::string msg =
      thrown_message([] { (void)parse_fault_plan("crash@1ms:dev0,zap@2ms:dev1", 1.0); });
  EXPECT_NE(msg.find("element 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'zap@2ms:dev1'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("offset 15"), std::string::npos) << msg;

  EXPECT_THROW((void)parse_fault_plan("crash@1ms:gpu0", 1.0), util::CheckError);
  EXPECT_THROW((void)parse_fault_plan("crash@-1ms:dev0", 1.0), util::CheckError);
  EXPECT_THROW((void)parse_fault_plan("slow@1ms:dev0", 1.0), util::CheckError);
  EXPECT_THROW((void)parse_fault_plan("slow@1ms:dev0x0", 1.0), util::CheckError);
  EXPECT_THROW((void)parse_fault_plan("slow@1ms:dev0x1e-300", 1.0), util::CheckError);
  EXPECT_THROW((void)parse_fault_plan("slow@1ms:dev0xinf", 1.0), util::CheckError);
  // A tiny slow factor would overflow the service-cycle division deep in
  // the event loop; the parser names the token instead.
  const std::string slow_msg = thrown_message(
      [] { (void)parse_fault_plan("crash@1ms:dev0, slow@0.01ms:dev0x1e-300", 1.0); });
  EXPECT_NE(slow_msg.find("'slow@0.01ms:dev0x1e-300'"), std::string::npos) << slow_msg;
  EXPECT_NE(slow_msg.find("offset 16"), std::string::npos) << slow_msg;
  EXPECT_DOUBLE_EQ(parse_fault_plan("slow@1ms:dev0x0.001", 1.0).events.at(0).factor,
                   kMinSlowFactor);
  EXPECT_THROW((void)parse_fault_plan("reclass@1ms:dev0", 1.0), util::CheckError);
  EXPECT_THROW((void)parse_fault_plan("", 1.0), util::CheckError);
  // Times must become cycles: non-finite, or at or past 2^63 cycles.
  EXPECT_THROW((void)parse_fault_plan("crash@inf:dev0", 1.0), util::CheckError);
  EXPECT_THROW((void)parse_fault_plan("crash@nan:dev0", 1.0), util::CheckError);
  EXPECT_THROW((void)parse_fault_plan("crash@1e300ms:dev0", 1.0), util::CheckError);
  EXPECT_THROW((void)parse_fault_plan("crash@1e308s:dev0", 1.0), util::CheckError);
  const std::string range_msg = thrown_message(
      [] { (void)parse_fault_plan("crash@1ms:dev0,recover@1e300ms:dev0", 1.0); });
  EXPECT_NE(range_msg.find("element 1"), std::string::npos) << range_msg;
  EXPECT_NE(range_msg.find("offset 15"), std::string::npos) << range_msg;
}

TEST(AutoscaleParse, SpecAndErrors) {
  const AutoscalerOptions options = parse_autoscale_spec("2:6:1.5");
  EXPECT_EQ(options.min_devices, 2u);
  EXPECT_EQ(options.max_devices, 6u);
  EXPECT_DOUBLE_EQ(options.target_p95_ms, 1.5);

  const std::string msg = thrown_message([] { (void)parse_autoscale_spec("4:2:1"); });
  EXPECT_NE(msg.find("min"), std::string::npos) << msg;
  EXPECT_THROW((void)parse_autoscale_spec("0:2:1"), util::CheckError);
  EXPECT_THROW((void)parse_autoscale_spec("1:2"), util::CheckError);
  EXPECT_THROW((void)parse_autoscale_spec("1:x:1"), util::CheckError);
}

TEST(CountListParse, ErrorsNameTheTokenAndPosition) {
  // "2xbaseline," is 11 characters, so element 1 starts at offset 11.
  const std::string msg =
      thrown_message([] { (void)util::parse_count_list("2xbaseline,0xfoo"); });
  EXPECT_NE(msg.find("element 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'0xfoo'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("offset 11"), std::string::npos) << msg;

  const std::string fleet_msg =
      thrown_message([] { (void)parse_fleet_spec("1xbaseline,3xwat"); });
  EXPECT_NE(fleet_msg.find("element 1"), std::string::npos) << fleet_msg;
  EXPECT_NE(fleet_msg.find("'wat'"), std::string::npos) << fleet_msg;
}

// ---- Crash semantics ------------------------------------------------------

/// A probe run (no faults) finds a cycle at which the single device is
/// mid-batch; crashing there must abort exactly the in-flight requests,
/// requeue them, and still complete every request after recovery.
TEST(ServeFault, CrashMidBatchRequeuesExactlyTheAbortedRequests) {
  ServerOptions options;
  options.num_devices = 1;
  options.policy = SchedulingPolicy::kFifo;
  constexpr std::size_t kRequests = 12;

  const auto workload_for = [&](const ServerOptions& o) {
    return PoissonWorkload(cora_mix(), /*rate_rps=*/50'000.0, kRequests, o.clock_ghz,
                           /*seed=*/5);
  };

  // Probe: find a batch that runs long enough to crash into.
  Server probe = make_server(options);
  PoissonWorkload probe_workload = workload_for(options);
  const ServeReport probe_report = probe.run_reference(probe_workload);
  ASSERT_EQ(probe_report.metrics.completed, kRequests);
  const Outcome* victim = nullptr;
  for (const Outcome& o : probe_report.outcomes) {
    if (o.completion > o.dispatch + 2) {
      victim = &o;
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  const Cycle crash_at = victim->dispatch + (victim->completion - victim->dispatch) / 2;
  const double crash_ms = cycles_to_ms(crash_at, options.clock_ghz);
  const double recover_ms = cycles_to_ms(probe_report.end_cycle, options.clock_ghz) + 1.0;

  // How many requests shared the victim's batch = how many must be aborted.
  std::size_t inflight_at_crash = 0;
  for (const Outcome& o : probe_report.outcomes) {
    if (o.dispatch <= crash_at && crash_at < o.completion) {
      ++inflight_at_crash;
    }
  }
  ASSERT_GT(inflight_at_crash, 0u);

  ServerOptions faulty = options;
  {
    std::ostringstream spec;
    spec << "crash@" << crash_ms << "ms:dev0,recover@" << recover_ms << "ms:dev0";
    faulty.faults = parse_fault_plan(spec.str(), options.clock_ghz);
  }
  Server server = make_server(faulty);
  PoissonWorkload workload = workload_for(faulty);
  const ServeReport report = server.serve(workload);

  // Conservation: every request is accounted for exactly once, and with a
  // generous retry budget plus a recovery, nothing is lost.
  EXPECT_EQ(report.metrics.completed + report.metrics.shed + report.metrics.failed,
            kRequests);
  EXPECT_EQ(report.outcomes.size(), kRequests);
  EXPECT_EQ(report.metrics.completed, kRequests);

  // Exactly the in-flight requests were aborted — no more, no fewer.
  ASSERT_EQ(report.devices.size(), 1u);
  EXPECT_EQ(report.devices[0].crashes, 1u);
  EXPECT_EQ(report.devices[0].aborted, inflight_at_crash);
  std::size_t retried = 0;
  for (const Outcome& o : report.outcomes) {
    if (o.retries > 0) {
      ++retried;
      EXPECT_EQ(o.retries, 1u);
      EXPECT_EQ(o.requeues, 1u);
      // The retried request's final dispatch is after the crash instant.
      EXPECT_GT(o.dispatch, crash_at);
    }
  }
  EXPECT_EQ(retried, inflight_at_crash);
  EXPECT_EQ(report.metrics.retries, inflight_at_crash);
  EXPECT_EQ(report.metrics.requeues, inflight_at_crash);
  EXPECT_GT(report.devices[0].downtime_cycles, 0u);
}

/// With a zero retry budget, the first abort permanently fails the
/// request: distinct from shed, no result, completion == dispatch.
TEST(ServeFault, RetryBudgetExhaustionFailsAbortedRequests) {
  ServerOptions options;
  options.num_devices = 2;
  options.policy = SchedulingPolicy::kFifo;
  options.retry_budget = 0;
  constexpr std::size_t kRequests = 30;
  // Crash device 0 early and never recover: whatever it had in flight
  // fails (budget 0); everything else drains through device 1.
  options.faults = parse_fault_plan("crash@0.02ms:dev0", options.clock_ghz);

  Server server = make_server(options);
  PoissonWorkload workload(cora_mix(), /*rate_rps=*/80'000.0, kRequests,
                           options.clock_ghz, /*seed=*/9);
  const ServeReport report = server.serve(workload);

  EXPECT_EQ(report.metrics.completed + report.metrics.shed + report.metrics.failed,
            kRequests);
  EXPECT_EQ(report.devices[0].aborted, report.metrics.failed);
  EXPECT_GT(report.metrics.failed, 0u) << "the crash aborted nothing";
  for (const Outcome& o : report.outcomes) {
    if (o.failed) {
      EXPECT_FALSE(o.shed);
      EXPECT_EQ(o.result, nullptr);
      EXPECT_EQ(o.completion, o.dispatch);
      EXPECT_EQ(o.service_cycles, 0u);
      EXPECT_EQ(o.retries, 1u);
      EXPECT_EQ(o.requeues, 0u);
    }
  }
}

/// After a recover event the device serves again; between crash and
/// recover it must dispatch nothing.
TEST(ServeFault, RecoverRestoresCapacity) {
  ServerOptions options;
  options.num_devices = 2;
  options.policy = SchedulingPolicy::kFifo;
  const Cycle crash_at = ms_to_cycles(0.5, options.clock_ghz);
  const Cycle recover_at = ms_to_cycles(2.0, options.clock_ghz);
  options.faults =
      parse_fault_plan("crash@0.5ms:dev1,recover@2ms:dev1", options.clock_ghz);

  Server server = make_server(options);
  PoissonWorkload workload(cora_mix(), /*rate_rps=*/30'000.0, /*num_requests=*/200,
                           options.clock_ghz, /*seed=*/21);
  const ServeReport report = server.serve(workload);

  EXPECT_EQ(report.metrics.completed + report.metrics.shed + report.metrics.failed, 200u);
  bool served_after_recovery = false;
  for (const Outcome& o : report.outcomes) {
    if (o.shed || o.failed || o.device != 1) {
      continue;
    }
    EXPECT_FALSE(o.dispatch >= crash_at && o.dispatch < recover_at)
        << "request " << o.id << " dispatched on device 1 during its outage";
    served_after_recovery |= o.dispatch >= recover_at;
  }
  EXPECT_TRUE(served_after_recovery) << "device 1 never served again after recovering";
  EXPECT_GE(report.devices[1].downtime_cycles, recover_at - crash_at);
}

/// A slow fault stretches service: the same workload takes longer end to
/// end on a half-speed device, and still conserves every request.
TEST(ServeFault, SlowFaultStretchesService) {
  ServerOptions options;
  options.num_devices = 1;
  options.policy = SchedulingPolicy::kFifo;

  const auto run = [&](const std::string& faults) {
    ServerOptions o = options;
    if (!faults.empty()) {
      o.faults = parse_fault_plan(faults, o.clock_ghz);
    }
    Server server = make_server(o);
    PoissonWorkload workload(cora_mix(), /*rate_rps=*/20'000.0, /*num_requests=*/40,
                             o.clock_ghz, /*seed=*/33);
    return server.serve(workload);
  };

  const ServeReport fast = run("");
  const ServeReport slow = run("slow@0ms:dev0x0.5");
  EXPECT_EQ(slow.metrics.completed, 40u);
  EXPECT_GT(slow.end_cycle, fast.end_cycle) << "half speed did not stretch the run";
}

// ---- Autoscaling ----------------------------------------------------------

TEST(ServeAutoscale, ScalesWithinBoundsAndChargesDeviceHours) {
  ServerOptions options;
  options.num_devices = 1;
  options.policy = SchedulingPolicy::kDynamicBatch;
  AutoscalerOptions scaler;
  scaler.min_devices = 1;
  scaler.max_devices = 3;
  scaler.up_queue_per_device = 4.0;
  options.autoscale = scaler;

  Server server = make_server(options);
  PoissonWorkload workload(cora_mix(), /*rate_rps=*/60'000.0, /*num_requests=*/400,
                           options.clock_ghz, /*seed=*/17);
  const ServeReport report = server.serve(workload);

  EXPECT_EQ(report.metrics.completed + report.metrics.shed + report.metrics.failed, 400u);
  EXPECT_GT(report.scale_ups, 0u) << "a saturated single device never triggered scale-up";
  EXPECT_LE(report.devices.size(), scaler.max_devices)
      << "the autoscaler grew past max_devices";

  // Device-hours: every device's active + downtime spans at most the run,
  // and the original device (never removed) is charged for all of it.
  for (std::size_t d = 0; d < report.devices.size(); ++d) {
    EXPECT_LE(report.devices[d].active_cycles + report.devices[d].downtime_cycles,
              report.end_cycle)
        << "device " << d;
  }
  EXPECT_EQ(report.devices[0].active_cycles, report.end_cycle);
  EXPECT_GT(report.device_hours_ms(), 0.0);
  EXPECT_LE(report.device_hours_ms(),
            report.duration_ms() * static_cast<double>(report.devices.size()) + 1e-9);

  // Ephemeral autoscaler devices do not leak into the next run.
  PoissonWorkload calm(cora_mix(), /*rate_rps=*/1'000.0, /*num_requests=*/20,
                       options.clock_ghz, /*seed=*/18);
  const ServeReport second = server.serve(calm);
  EXPECT_EQ(second.metrics.completed + second.metrics.shed + second.metrics.failed, 20u);
}

TEST(ServeAutoscale, InvalidOptionsThrowAtConstruction) {
  ServerOptions options;
  options.num_devices = 1;
  AutoscalerOptions scaler;
  scaler.min_devices = 4;
  scaler.max_devices = 2;
  options.autoscale = scaler;
  EXPECT_THROW(Server{options}, util::CheckError);
}

// ---- Workload generators --------------------------------------------------

TEST(ServeWorkload, MmppIsSortedDeterministicAndComplete) {
  const std::vector<MmppState> states = parse_mmpp_spec("2000:5, 20000:1");
  ASSERT_EQ(states.size(), 2u);
  EXPECT_DOUBLE_EQ(states[0].rate_rps, 2000.0);
  EXPECT_DOUBLE_EQ(states[1].mean_dwell_ms, 1.0);

  const auto draw = [&] {
    MmppWorkload workload(cora_mix(), states, /*num_requests=*/500, /*clock_ghz=*/1.0,
                          /*seed=*/7);
    return workload.initial_arrivals();
  };
  const std::vector<Request> a = draw();
  const std::vector<Request> b = draw();
  ASSERT_EQ(a.size(), 500u);
  ASSERT_EQ(b.size(), 500u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival) << "MMPP diverged at request " << i;
    if (i > 0) {
      EXPECT_GE(a[i].arrival, a[i - 1].arrival);
    }
  }

  const std::string msg = thrown_message([] { (void)parse_mmpp_spec("2000:5,oops"); });
  EXPECT_NE(msg.find("element 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'oops'"), std::string::npos) << msg;
  EXPECT_THROW((void)parse_mmpp_spec("2000:-1"), util::CheckError);
  EXPECT_THROW((void)parse_mmpp_spec(""), util::CheckError);
  EXPECT_THROW((void)parse_mmpp_spec("1000:inf"), util::CheckError);
  EXPECT_THROW((void)parse_mmpp_spec("inf:5"), util::CheckError);
  EXPECT_THROW((void)parse_mmpp_spec("1000:nan"), util::CheckError);
}

TEST(ServeWorkload, DiurnalTraceThinsTheTrough) {
  TraceSpec spec;
  spec.num_requests = 4'000;
  spec.rate_rps = 50'000.0;
  spec.diurnal_period_ms = 40.0;
  spec.diurnal_amplitude = 0.9;
  spec.seed = 3;
  const std::string path = "diurnal_trace_test.csv";
  ASSERT_EQ(write_synthetic_trace(path, spec), spec.num_requests);

  const core::SimulationRequest base;
  StreamingTraceWorkload replay(path, base, /*clock_ghz=*/1.0);
  std::vector<Request> rows;
  while (replay.pull(1024, rows) > 0) {
  }
  ASSERT_EQ(rows.size(), spec.num_requests);  // sorted or pull() would have thrown

  // Day (sin > 0) must hold far more arrivals than night (sin < 0):
  // the rate ratio across half-periods is (1 + a/ (pi/2)) style, but a
  // crude day/night split already separates decisively at a = 0.9.
  std::size_t day = 0;
  for (const Request& r : rows) {
    const double t_ms = cycles_to_ms(r.arrival, 1.0);
    if (std::fmod(t_ms, spec.diurnal_period_ms) < spec.diurnal_period_ms / 2.0) {
      ++day;
    }
  }
  const double day_share = static_cast<double>(day) / static_cast<double>(rows.size());
  EXPECT_GT(day_share, 0.6) << "diurnal thinning left the trough as busy as the peak";
  std::remove(path.c_str());
}

}  // namespace
}  // namespace gnnerator::serve
