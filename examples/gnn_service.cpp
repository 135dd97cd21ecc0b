// A GNNerator serving deployment in one command: a fleet of simulated
// devices — optionally heterogeneous, mixing Table IV baseline and Fig. 5
// next-generation device classes — behind an admission-controlled queue,
// driven by an open-loop Poisson workload (or a recorded CSV trace) and
// measured with production metrics: tail latency (overall and per request
// class), throughput, utilization, shed count, plan-cache effectiveness.
// Everything runs in simulated device time, so two runs with the same seed
// are bit-identical.
//
//   ./gnn_service [--devices N | --fleet SPEC] [--policy fifo|sjf|batch|affinity]
//                 [--classes SPEC] [--arrival-rate RPS] [--requests N]
//                 [--trace FILE.csv] [--stream] [--slo-ms MS]
//                 [--datasets cora,citeseer,pubmed] [--window-ms MS]
//                 [--max-batch N] [--queue-cap N] [--seed S]
//
// --fleet takes "2xbaseline,1xnextgen" (classes: baseline, 2x-graph-mem,
// 2x-dense, 2x-bw, nextgen). --classes takes comma-separated
// "name[:slo_ms[:weight[:priority]]]" request classes (SLO tiers), e.g.
// "interactive:10:4:1,bulk"; workload mix entries are assigned to the
// classes round-robin. Trace CSV columns:
// arrival_ms,dataset,model,slo_ms[,class] (model: gcn, gsage, gsage-max).
// Example row: 12.5,cora,gcn,10,interactive
//
// --stream replays --trace incrementally with bounded memory — rows must
// then be sorted by arrival_ms.
//
// --faults injects a deterministic schedule of device crash/slow/recover/
// reclass events (crash@500ms:dev2,slow@1s:dev0x0.5,recover@2s:dev2);
// aborted work is requeued with a retry budget and exponential backoff.
// --autoscale "min:max:target-p95-ms" grows/shrinks the fleet from queue
// depth and rolling p95 latency. --mmpp "rate:dwell-ms,..." replaces the
// Poisson stream with a Markov-modulated (bursty) one. All three are
// deterministic: the same seed and specs give a bit-identical report.
//
// --sample-fanout "10/5" switches the generated workload to sampled
// mini-batch queries: each request carries a seed vertex (drawn with
// probability proportional to in-degree + 1, so hubs are hot) and that
// k-hop fanout; the server samples the frontier ahead of compile and fuses
// distinct frontiers of one batching class into a single device pass.
// --seed-queries N sets how many sampled queries to issue (defaults to
// --requests). --feature-cache-mb MB enables the pre-sampling feature cache
// (rows ranked by expected sample frequency; hits stream at cache speed
// instead of paying DRAM latency) and reports its hit rate. Trace rows can
// carry the same shape via the optional seed,fanout column pair.
//
// --trace-out FILE.json attaches an obs::Recorder and exports the run as
// Chrome trace-event JSON — open it at https://ui.perfetto.dev to see device
// lanes, per-request spans and the control (faults/autoscaler) tracks.
// --engine-spans additionally captures per-engine (gemm/shard) compute
// sub-lanes inside each device busy span. --metrics-out FILE.txt writes a
// Prometheus text-format snapshot of the run's metrics registry. Both are
// deterministic: same seed, same bytes.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/recorder.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "util/args.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

using namespace gnnerator;

namespace {

constexpr std::string_view kUsage =
    "[--devices N | --fleet 2xbaseline,1xnextgen] [--policy fifo|sjf|batch|affinity]\n"
    "  [--classes name[:slo_ms[:weight[:priority]]],...] [--arrival-rate RPS]\n"
    "  [--requests N] [--trace FILE.csv] [--stream] [--slo-ms MS]\n"
    "  [--datasets cora,citeseer,pubmed] [--window-ms MS] [--max-batch N]\n"
    "  [--queue-cap N] [--seed S]\n"
    "  [--faults crash@500ms:dev2,slow@1s:dev0x0.5,recover@2s:dev2]\n"
    "  [--autoscale min:max:target-p95-ms] [--mmpp rate:dwell-ms,rate:dwell-ms,...]\n"
    "  [--sample-fanout 10/5] [--seed-queries N] [--feature-cache-mb MB]\n"
    "  [--trace-out FILE.json] [--engine-spans] [--metrics-out FILE.txt]";

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.push_back(item);
    }
  }
  return out;
}

int run(const util::Args& args) {
  serve::ServerOptions options;
  if (args.has("fleet")) {
    options.fleet = serve::parse_fleet_spec(args.get("fleet"));
  } else {
    options.num_devices =
        static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("devices", 4)));
  }
  if (args.has("classes")) {
    options.classes = serve::parse_class_spec(args.get("classes"));
  }
  const std::string policy_arg = args.get("policy", "batch");
  const auto policy = serve::parse_policy(policy_arg);
  GNNERATOR_CHECK_MSG(policy.has_value(),
                      "unknown policy '" << policy_arg << "' (fifo, sjf, batch, affinity)");
  options.policy = *policy;
  options.default_slo_ms = args.get_double("slo-ms", 0.0);
  options.limits.batch_window =
      serve::ms_to_cycles(args.get_double("window-ms", 1.0), options.clock_ghz);
  options.limits.max_batch =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("max-batch", 16)));
  options.queue_capacity =
      static_cast<std::size_t>(std::max<std::int64_t>(0, args.get_int("queue-cap", 0)));
  if (args.has("faults")) {
    options.faults = serve::parse_fault_plan(args.get("faults"), options.clock_ghz);
  }
  if (args.has("autoscale")) {
    options.autoscale = serve::parse_autoscale_spec(args.get("autoscale"));
  }
  const std::string sample_fanout = args.get("sample-fanout", "");
  if (args.has("feature-cache-mb")) {
    const double cache_mb = args.get_double("feature-cache-mb", 16.0);
    GNNERATOR_CHECK_MSG(cache_mb > 0.0, "--feature-cache-mb must be positive");
    serve::FeatureCacheOptions cache;
    cache.budget_bytes = static_cast<std::uint64_t>(cache_mb * (1 << 20));
    options.feature_cache = cache;
  }

  const std::string trace_out = args.get("trace-out", "");
  const std::string metrics_out = args.get("metrics-out", "");
  if (!trace_out.empty() || !metrics_out.empty()) {
    obs::RecorderOptions rec;
    rec.engine_spans = args.has("engine-spans");
    options.recorder = std::make_shared<obs::Recorder>(rec);
  }

  serve::Server server(options);
  const std::vector<std::string> datasets =
      split_list(args.get("datasets", "cora,citeseer,pubmed"));
  std::vector<serve::RequestTemplate> mix;
  std::vector<serve::SampledQueryWorkload::Entry> sampled_mix;
  for (const std::string& name : datasets) {
    const graph::Dataset& ds =
        server.add_dataset(graph::make_dataset_by_name(name, /*seed=*/1,
                                                       /*with_features=*/false));
    for (const gnn::LayerKind kind :
         {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
      serve::RequestTemplate t;
      t.sim.dataset = ds.spec.name;
      t.sim.model = core::table3_model(kind, ds.spec);
      if (!options.classes.empty()) {
        t.klass = options.classes[mix.size() % options.classes.size()].name;
      }
      if (!sample_fanout.empty()) {
        sampled_mix.push_back(serve::SampledQueryWorkload::Entry{t, &ds, sample_fanout});
      }
      mix.push_back(std::move(t));
    }
  }

  const auto fleet_line = [&] {
    std::ostringstream os;
    if (options.fleet.empty()) {
      os << options.num_devices << " device(s)";
    } else {
      os << server.num_devices() << " device(s) [";
      for (std::size_t c = 0; c < options.fleet.size(); ++c) {
        os << (c > 0 ? "," : "") << options.fleet[c].count << "x" << options.fleet[c].name;
      }
      os << "]";
    }
    return os.str();
  };

  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  serve::ServeReport report;
  if (args.has("trace")) {
    core::SimulationRequest base;  // trace rows carry dataset/model/slo/class
    if (args.get_bool("stream", false)) {
      serve::StreamingTraceWorkload workload(args.get("trace"), base, options.clock_ghz);
      std::cout << "streaming trace '" << args.get("trace") << "' on " << fleet_line()
                << ", policy " << serve::policy_name(options.policy) << "\n\n";
      report = server.serve(workload);
      std::cout << "streamed " << workload.rows_streamed() << " rows, reader peak "
                << workload.peak_buffer_bytes() << " bytes\n";
    } else {
      serve::TraceWorkload workload =
          serve::TraceWorkload::from_file(args.get("trace"), base, options.clock_ghz);
      std::cout << "replaying trace '" << args.get("trace") << "': " << workload.size()
                << " requests on " << fleet_line() << ", policy "
                << serve::policy_name(options.policy) << "\n\n";
      report = server.serve(workload);
    }
  } else if (args.has("mmpp")) {
    const auto requests =
        static_cast<std::size_t>(std::max<std::int64_t>(0, args.get_int("requests", 2000)));
    std::vector<serve::MmppState> states = serve::parse_mmpp_spec(args.get("mmpp"));
    serve::MmppWorkload workload(mix, states, requests, options.clock_ghz, seed);
    std::cout << "MMPP: " << requests << " requests over " << states.size()
              << " regime(s) x " << datasets.size() << " dataset(s) x 3 models, "
              << fleet_line() << ", policy " << serve::policy_name(options.policy)
              << "\n\n";
    report = server.serve(workload);
  } else if (!sample_fanout.empty()) {
    const double rate = args.get_double("arrival-rate", 2000.0);
    const auto requests = static_cast<std::size_t>(std::max<std::int64_t>(
        0, args.get_int("seed-queries", args.get_int("requests", 2000))));
    serve::SampledQueryWorkload workload(std::move(sampled_mix), rate, requests,
                                         options.clock_ghz, seed);
    std::cout << "sampled queries: " << requests << " requests at " << rate
              << " req/s, fanout " << sample_fanout << " over " << datasets.size()
              << " dataset(s) x 3 models, " << fleet_line() << ", policy "
              << serve::policy_name(options.policy) << "\n\n";
    report = server.serve(workload);
  } else {
    const double rate = args.get_double("arrival-rate", 2000.0);
    const auto requests =
        static_cast<std::size_t>(std::max<std::int64_t>(0, args.get_int("requests", 2000)));
    serve::PoissonWorkload workload(mix, rate, requests, options.clock_ghz, seed);
    std::cout << "open-loop Poisson: " << requests << " requests at " << rate
              << " req/s over " << datasets.size() << " dataset(s) x 3 models, "
              << fleet_line() << ", policy " << serve::policy_name(options.policy)
              << "\n\n";
    report = server.serve(workload);
  }

  std::cout << report.format();

  if (!trace_out.empty()) {
    GNNERATOR_CHECK_MSG(obs::write_chrome_trace_file(*options.recorder, trace_out),
                        "cannot write trace to '" << trace_out << "'");
    std::cout << "trace: " << trace_out << " ("
              << options.recorder->span_events().size() << " span events, "
              << options.recorder->device_spans().size()
              << " device spans; open in https://ui.perfetto.dev)\n";
  }
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    GNNERATOR_CHECK_MSG(static_cast<bool>(out), "cannot open '" << metrics_out << "'");
    out << options.recorder->registry().text_snapshot();
    GNNERATOR_CHECK_MSG(static_cast<bool>(out),
                        "cannot write metrics to '" << metrics_out << "'");
    std::cout << "metrics: " << metrics_out << " ("
              << options.recorder->registry().family_count() << " families)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return util::cli_main(argc, argv, kUsage, run); }
