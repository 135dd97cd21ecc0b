// Sampled mini-batch serving benchmark: a degree-skewed stream of k-hop
// sampled queries (seed vertices drawn proportionally to in-degree + 1, the
// HP-GNN/FGNN serving shape) drives the server at 2x its measured
// per-request capacity, comparing mixed-batch plan fusion against
// per-request dispatch and measuring the pre-sampling feature cache.
//
// Three hard invariants, enforced with a non-zero exit:
//   * fusion pays — at 2x capacity, fused dispatch (distinct frontiers of
//     one batching class concatenated into a single device pass) must beat
//     per-request dispatch (max_batch = 1) on p95 latency;
//   * the cache earns its bytes — on the skewed workload the pre-sampling
//     feature cache must land a hit rate above 0.5 and save DRAM bytes;
//   * bitwise determinism — the fused + cached scenario produces the
//     identical report (fingerprint over every record field, cache counters
//     included) from run_reference and serve.
//
//   ./serve_sample [--json BENCH_serve_sample.json] [--seed-queries N]
//                  [--fanout 10/5] [--devices N] [--cache-mb MB]
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace gnnerator;

/// FNV-1a over every externally visible field of a serve report. format()
/// folds in the metrics block and the feature-cache counter line, so two
/// equal fingerprints mean the simulations were indistinguishable —
/// scheduling, fusion compositions, and cache state included.
std::uint64_t report_fingerprint(const serve::ServeReport& report) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  const auto mix_str = [&](const std::string& s) {
    mix(s.size());
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  for (const serve::Outcome& o : report.outcomes) {
    mix(o.id);
    mix(o.arrival);
    mix(o.dispatch);
    mix(o.completion);
    mix(o.device);
    mix(o.batch_size);
    mix(o.shed ? 1 : 0);
    mix(o.failed ? 1 : 0);
    mix(o.service_cycles);
    mix_str(o.class_key);
  }
  mix(report.end_cycle);
  mix(report.events);
  mix(report.feature_cache.hits);
  mix(report.feature_cache.misses);
  mix(report.feature_cache.evictions);
  mix(report.feature_cache.bytes_saved);
  mix_str(report.format());
  return h;
}

struct RunResult {
  double wall_s = 0.0;
  std::uint64_t fingerprint = 0;
  std::size_t completed = 0;
  double p95_ms = 0.0;
  double p50_ms = 0.0;
  double mean_batch = 0.0;
  double throughput_rps = 0.0;
  double cache_hit_rate = 0.0;
  std::uint64_t cache_bytes_saved = 0;
  std::uint64_t cache_evictions = 0;
  double mean_service_cycles = 0.0;
};

/// The workload is rebuilt per run from the same spec: the generator is
/// deterministic in (entries, rate, n, seed), so every run sees the same
/// degree-skewed arrival sequence.
struct WorkloadSpec {
  const graph::Dataset* dataset = nullptr;
  std::string fanout;
  double rate_rps = 0.0;
  std::size_t num_requests = 0;
  std::uint64_t seed = 0;
};

serve::SampledQueryWorkload make_workload(const WorkloadSpec& spec) {
  std::vector<serve::SampledQueryWorkload::Entry> entries;
  for (const gnn::LayerKind kind : {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean}) {
    serve::RequestTemplate t;
    t.sim.dataset = spec.dataset->spec.name;
    t.sim.model = core::table3_model(kind, spec.dataset->spec);
    entries.push_back(serve::SampledQueryWorkload::Entry{t, spec.dataset, spec.fanout});
  }
  return serve::SampledQueryWorkload(std::move(entries), spec.rate_rps, spec.num_requests,
                                     /*clock_ghz=*/1.0, spec.seed);
}

RunResult run_once(const serve::ServerOptions& options, const WorkloadSpec& spec,
                   bool reference) {
  serve::Server server(options);
  server.add_dataset(
      graph::make_dataset_by_name(spec.dataset->spec.name, /*seed=*/1,
                                  /*with_features=*/false));
  serve::SampledQueryWorkload workload = make_workload(spec);
  const auto start = std::chrono::steady_clock::now();
  const serve::ServeReport report =
      reference ? server.run_reference(workload) : server.serve(workload);
  const auto stop = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_s = std::chrono::duration<double>(stop - start).count();
  r.fingerprint = report_fingerprint(report);
  r.completed = report.metrics.completed;
  r.p95_ms = report.metrics.p95_ms;
  r.p50_ms = report.metrics.p50_ms;
  r.mean_batch = report.metrics.mean_batch_size;
  r.throughput_rps = report.metrics.throughput_rps;
  r.cache_hit_rate = report.feature_cache.hit_rate();
  r.cache_bytes_saved = report.feature_cache.bytes_saved;
  r.cache_evictions = report.feature_cache.evictions;
  std::uint64_t service = 0;
  std::size_t served = 0;
  for (const serve::Outcome& o : report.outcomes) {
    if (!o.shed && !o.failed) {
      service += o.service_cycles;
      ++served;
    }
  }
  r.mean_service_cycles =
      served == 0 ? 0.0 : static_cast<double>(service) / static_cast<double>(served);
  return r;
}

serve::ServerOptions base_options(std::size_t devices) {
  serve::ServerOptions options;
  options.num_devices = devices;
  options.policy = serve::SchedulingPolicy::kDynamicBatch;
  options.limits.batch_window = serve::ms_to_cycles(0.1, options.clock_ghz);
  options.limits.max_batch = 16;
  return options;
}

constexpr std::string_view kUsage =
    "[--json BENCH_serve_sample.json] [--seed-queries N] [--fanout 10/5]\n"
    "  [--devices N] [--cache-mb MB]";

int run(const util::Args& args) {
  const std::string json_path = args.get("json");
  const auto queries = static_cast<std::size_t>(
      std::max<std::int64_t>(200, args.get_int("seed-queries", 4000)));
  const std::string fanout = args.get("fanout", "10/5");
  const auto devices =
      static_cast<std::size_t>(std::max<std::int64_t>(1, args.get_int("devices", 2)));
  const double cache_mb = args.get_double("cache-mb", 8.0);

  // The workload's base graph: one dataset keeps the feature cache's byte
  // budget meaningful (the cache is per dataset).
  const graph::Dataset dataset =
      graph::make_dataset_by_name("cora", /*seed=*/1, /*with_features=*/false);
  WorkloadSpec spec;
  spec.dataset = &dataset;
  spec.fanout = fanout;
  spec.seed = 17;

  // ---- Calibration: measured per-request capacity of the fleet. ----
  // A short per-request run well under saturation yields the mean service
  // cycles per sampled query; capacity follows from the fleet size. All in
  // simulated time, so the calibration is deterministic.
  spec.rate_rps = 2000.0;
  spec.num_requests = std::min<std::size_t>(500, queries);
  serve::ServerOptions solo = base_options(devices);
  solo.limits.max_batch = 1;
  const RunResult calibration = run_once(solo, spec, /*reference=*/false);
  const double service_s = calibration.mean_service_cycles / (solo.clock_ghz * 1e9);
  const double capacity_rps = static_cast<double>(devices) / service_s;

  // ---- The contest: 2x capacity, per-request vs fused dispatch. ----
  spec.rate_rps = 2.0 * capacity_rps;
  spec.num_requests = queries;

  util::Table table({"run", "p50 ms", "p95 ms", "mean batch", "throughput rps",
                     "cache hit", "wall s"});
  const auto row_for = [&](const std::string& name, const RunResult& r) {
    table.add_row({name, util::Table::fixed(r.p50_ms, 3), util::Table::fixed(r.p95_ms, 3),
                   util::Table::fixed(r.mean_batch, 2),
                   util::Table::fixed(r.throughput_rps, 0),
                   util::Table::fixed(r.cache_hit_rate, 4),
                   util::Table::fixed(r.wall_s, 3)});
  };

  bench::JsonReport json;
  json.set("config.seed_queries", static_cast<std::uint64_t>(queries));
  json.set("config.devices", static_cast<std::uint64_t>(devices));
  json.set("config.cache_mb", cache_mb);
  json.set("calibration.mean_service_cycles", calibration.mean_service_cycles);
  json.set("calibration.capacity_rps", capacity_rps);
  json.set("load.rate_rps", spec.rate_rps);

  const RunResult per_request = run_once(solo, spec, /*reference=*/false);
  row_for("per-request", per_request);
  json.set("per_request.p50_ms", per_request.p50_ms);
  json.set("per_request.p95_ms", per_request.p95_ms);
  json.set("per_request.throughput_rps", per_request.throughput_rps);

  serve::ServerOptions fused_options = base_options(devices);
  serve::FeatureCacheOptions cache;
  cache.budget_bytes = static_cast<std::uint64_t>(cache_mb * (1 << 20));
  fused_options.feature_cache = cache;
  const RunResult fused = run_once(fused_options, spec, /*reference=*/false);
  row_for("fused+cache", fused);
  json.set("fused.p50_ms", fused.p50_ms);
  json.set("fused.p95_ms", fused.p95_ms);
  json.set("fused.mean_batch", fused.mean_batch);
  json.set("fused.throughput_rps", fused.throughput_rps);
  json.set("fused.cache_hit_rate", fused.cache_hit_rate);
  json.set("fused.cache_bytes_saved", fused.cache_bytes_saved);
  json.set("fused.cache_evictions", fused.cache_evictions);
  json.set("fused.speedup_p95", per_request.p95_ms / fused.p95_ms);

  bool fusion_pays = fused.p95_ms < per_request.p95_ms && fused.mean_batch > 1.0;
  if (!fusion_pays) {
    std::cerr << "REGRESSION: fused dispatch p95 " << fused.p95_ms
              << " ms (mean batch " << fused.mean_batch
              << ") does not beat per-request p95 " << per_request.p95_ms
              << " ms at 2x capacity\n";
  }
  bool cache_pays = fused.cache_hit_rate > 0.5 && fused.cache_bytes_saved > 0;
  if (!cache_pays) {
    std::cerr << "REGRESSION: feature cache hit rate " << fused.cache_hit_rate
              << " (bytes saved " << fused.cache_bytes_saved
              << ") below the 0.5 gate on the degree-skewed workload\n";
  }

  // ---- Gate 3: the fused + cached scenario is loop-invariant.
  const RunResult reference = run_once(fused_options, spec, /*reference=*/true);
  row_for("reference", reference);
  const bool identical = fused.fingerprint == reference.fingerprint;
  json.set("fused.report_fingerprint", fused.fingerprint);
  if (!identical) {
    std::cerr << "DIVERGENCE: serve() differs from run_reference on the sampled workload\n";
  }

  json.set("gates.fusion_beats_per_request", static_cast<std::uint64_t>(fusion_pays ? 1 : 0));
  json.set("gates.cache_hit_rate_above_half", static_cast<std::uint64_t>(cache_pays ? 1 : 0));
  json.set("gates.reports_identical", static_cast<std::uint64_t>(identical ? 1 : 0));

  std::cout << table.to_string();
  if (!json_path.empty()) {
    if (!json.write(json_path)) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
    std::cout << "\nwrote " << json_path << "\n";
  }
  return (fusion_pays && cache_pays && identical) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return util::cli_main(argc, argv, kUsage, run); }
