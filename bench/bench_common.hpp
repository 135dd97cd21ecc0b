#pragma once

// Shared helpers for the bench drivers: the shared simulation Engine and
// its dataset registry, the nine Fig. 3 benchmark points, and
// machine-readable JSON output (`--json <path>`) for tracking the perf
// trajectory in CI.

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/gnnerator.hpp"
#include "gnn/layers.hpp"
#include "graph/datasets.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace gnnerator::bench {

/// The shared simulation Engine for the whole harness: drivers revisit the
/// same (dataset, model, config) points (speedup ratios, ablation baselines),
/// so the plan cache removes every repeated compile. Timing runs are
/// single-threaded and deterministic; one thread keeps the harness
/// measurements honest.
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
inline double gnnerator_ms(const BenchPoint& point, const core::SimulationRequest& request) {
  const graph::Dataset& ds = dataset(point.dataset);  // ensures registration
  core::SimulationRequest by_id = request;
  by_id.dataset = point.dataset;
  by_id.model = core::table3_model(point.kind, ds.spec);
  const auto result = engine().run(by_id);
  return result.milliseconds(by_id.config.clock_ghz);
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

}  // namespace gnnerator::bench
