#pragma once

// Shared helpers for the paper-reproduction benchmark harness: dataset
// caching, the nine Fig. 3 benchmark points, result table printing, and
// machine-readable JSON output (`--json <path>`) for tracking the perf
// trajectory in CI.

#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baseline/gpu_model.hpp"
#include "core/engine.hpp"
#include "core/gnnerator.hpp"
#include "gnn/layers.hpp"
#include "graph/datasets.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace gnnerator::bench {

/// The shared simulation Engine for the whole harness: benchmarks sweep the
/// same (dataset, model, config) points repeatedly (google-benchmark
/// iterations, speedup ratios), so the plan cache removes every repeated
/// compile. Timing runs are single-threaded and deterministic; one thread
/// keeps the harness measurements honest.
inline core::Engine& engine() {
  static core::Engine instance(
      core::EngineOptions{.num_threads = 1, .plan_cache_capacity = 128});
  return instance;
}

/// Structure-only datasets are enough for timing runs; they live in the
/// Engine's registry (which also memoizes the plan-cache fingerprint, so
/// measured loops never re-hash the edge list). Benchmarks never
/// re-register a name, so the returned reference stays valid.
inline const graph::Dataset& dataset(const std::string& name) {
  core::Engine& eng = engine();
  if (!eng.has_dataset(name)) {
    eng.add_dataset(graph::make_dataset_by_name(name, /*seed=*/1, /*with_features=*/false));
  }
  return eng.dataset(name);
}

/// One of the paper's nine benchmark points ("cora-gcn", ... Fig. 3).
struct BenchPoint {
  std::string dataset;
  gnn::LayerKind kind;

  [[nodiscard]] std::string name() const {
    const std::string ds = dataset == "pubmed" ? "pub" : dataset;
    return ds + "-" + std::string(gnn::layer_kind_name(kind));
  }
};

inline std::vector<BenchPoint> fig3_points() {
  std::vector<BenchPoint> points;
  for (const char* ds : {"cora", "citeseer", "pubmed"}) {
    for (const gnn::LayerKind kind :
         {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
      points.push_back(BenchPoint{ds, kind});
    }
  }
  return points;
}

/// GNNerator wall-clock milliseconds for a benchmark point.
inline double gnnerator_ms(const BenchPoint& point, const core::SimulationRequest& request,
                           std::size_t hidden = 16) {
  const graph::Dataset& ds = dataset(point.dataset);  // ensures registration
  core::SimulationRequest by_id = request;
  by_id.dataset = point.dataset;
  by_id.model = core::table3_model(point.kind, ds.spec, hidden);
  const auto result = engine().run(by_id);
  return result.milliseconds(by_id.config.clock_ghz);
}

/// GPU-model milliseconds for a benchmark point.
inline double gpu_ms(const BenchPoint& point, std::size_t hidden = 16) {
  const graph::Dataset& ds = dataset(point.dataset);
  const gnn::ModelSpec model = core::table3_model(point.kind, ds.spec, hidden);
  const baseline::GpuModel gpu;
  return gpu.model_time_s(model, ds.spec) * 1e3;
}

/// Flat JSON object accumulated in insertion order — just enough for bench
/// drivers to emit machine-readable results (`--json <path>`), no external
/// dependency. Rendering goes through util::JsonWriter, the repo's single
/// JSON emitter (shared with the obs Chrome-trace exporter): numbers come
/// out in deterministic shortest round-trip form, keys are escaped, and
/// non-finite values degrade to null so the artifact stays parseable.
class JsonReport {
 public:
  void set(const std::string& key, double value) {
    entries_.emplace_back(key, util::json_number(value));
  }
  void set(const std::string& key, std::uint64_t value) {
    entries_.emplace_back(key, util::json_number(value));
  }

  [[nodiscard]] std::string to_string() const {
    std::ostringstream os;
    util::JsonWriter w(os, /*indent=*/2);
    w.begin_object();
    for (const auto& [key, rendered] : entries_) {
      w.key(key).raw_value(rendered);
    }
    w.end_object();
    os << "\n";
    return os.str();
  }

  /// Writes the object to `path`; returns false when the file cannot be
  /// opened or written.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    out << to_string();
    return static_cast<bool>(out);
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Table cell for a speedup, "n/a" when a partial --benchmark_filter skipped
/// one of the points it divides.
inline std::string speedup_cell(std::optional<double> speedup) {
  return speedup ? util::Table::speedup(*speedup) : "n/a";
}

/// Table cell for the geomean of the speedups that ran, "n/a" when none did.
inline std::string gmean_cell(const std::vector<double>& speedups) {
  return speedups.empty() ? "n/a" : util::Table::speedup(util::geomean(speedups));
}

/// Extracts a `--json <path>` / `--json=<path>` flag from the raw argv
/// (before benchmark::Initialize eats its own flags). Empty = not given.
inline std::string json_path_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      return argv[i + 1];
    }
    if (arg.rfind("--json=", 0) == 0) {
      return arg.substr(7);
    }
  }
  return "";
}

}  // namespace gnnerator::bench
