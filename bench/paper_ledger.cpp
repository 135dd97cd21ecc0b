// Reproduces the paper's headline comparisons from one set of simulations:
// Table III (networks), Fig. 3 (speedup over the RTX 2080 Ti model), Table IV
// (compute platforms), Table V (speedup over HyGCN, GCN) and Fig. 5
// (next-generation scaling). The driver simulates every
// baseline::paper_points() request once; baseline::paper_ledger computes
// the baselines, speedups and geomeans from the cycles.
//
//   ./paper_ledger [--json BENCH_paper.json]
//
// Paper values: Fig. 3 geomean 8.0x (blocked) and 4.2x (unblocked), with
// per-benchmark speedups from 1.7x (pub-gsage) to 37x (citeseer-gsage-max);
// Table V 3.8x / 3.2x / 2.3x with blocking and 1.8x / 0.8x / 1.0x without;
// Fig. 5 geomeans ~1.1x (mem), ~1.4x (dense), ~1.4x (bw). --json writes the
// cycles of every point, the GPU times, the HyGCN cycles and every ratio,
// with each headline number beside the paper's value (`fidelity.*`).
#include <iostream>
#include <map>
#include <string>

#include "baseline/gpu_model.hpp"
#include "baseline/hygcn_model.hpp"
#include "baseline/paper_ledger.hpp"
#include "bench_common.hpp"
#include "util/cli.hpp"

namespace {

using namespace gnnerator;

void print_fig3(const baseline::PaperLedger& ledger) {
  std::cout << "\n=== Table III: networks ===\n";
  util::Table nets({"Network", "Hidden Layers", "Hidden Dimension"});
  nets.add_row({"GCN", "1", "16"});
  nets.add_row({"Graphsage", "1", "16"});
  nets.add_row({"GraphsagePool", "1", "16"});
  std::cout << nets.to_string();

  std::cout << "\n=== Fig. 3: speedup over RTX 2080 Ti (model) ===\n";
  util::Table table({"Benchmark", "GPU (ms)", "GNNerator (ms)", "GNNerator w/o FB (ms)",
                     "Speedup", "Speedup w/o FB"});
  for (const baseline::Fig3Row& row : ledger.fig3) {
    table.add_row({row.name, util::Table::fixed(row.gpu_ms, 3),
                   util::Table::fixed(row.blocked.ms, 3), util::Table::fixed(row.unblocked.ms, 3),
                   util::Table::speedup(row.blocked.speedup),
                   util::Table::speedup(row.unblocked.speedup)});
  }
  table.add_separator();
  table.add_row({"Gmean", "", "", "", util::Table::speedup(ledger.fig3_gmean_blocked),
                 util::Table::speedup(ledger.fig3_gmean_unblocked)});
  std::cout << table.to_string();
  std::cout << "\nPaper: Gmean 8.0x (blocked), 4.2x (w/o feature blocking).\n";
}

void print_table5(const baseline::PaperLedger& ledger) {
  std::cout << "\n=== Table IV: compute platforms ===\n";
  const auto gnn_cfg = core::AcceleratorConfig::table4();
  const baseline::HygcnConfig hygcn_cfg;
  const baseline::GpuModel gpu;
  util::Table platforms({"", "RTX 2080 Ti", "GNNerator", "HyGCN"});
  platforms.add_row({"Peak Compute", "13 TFLOPs",
                     util::Table::fixed(gnn_cfg.peak_dense_tflops() +
                                            gnn_cfg.peak_graph_tflops(), 0) +
                         " TFLOPs (" + util::Table::fixed(gnn_cfg.peak_graph_tflops(), 0) +
                         " Graph, " + util::Table::fixed(gnn_cfg.peak_dense_tflops(), 0) +
                         " Dense)",
                     "9 TFLOPs (1 Graph, 8 Dense)"});
  platforms.add_row({"On-chip Memory", "29.5 MiB",
                     util::format_bytes(gnn_cfg.total_sram_bytes()),
                     util::format_bytes(hygcn_cfg.buffer_bytes)});
  platforms.add_row({"Off-chip Memory",
                     util::Table::fixed(gpu.config().mem_bw_bytes / 1e9, 0) + " GB/s",
                     util::Table::fixed(gnn_cfg.offchip_gb_per_s(), 0) + " GB/s",
                     util::Table::fixed(hygcn_cfg.dram_bytes_per_cycle, 0) + " GB/s"});
  std::cout << platforms.to_string();

  std::cout << "\n=== Table V: speedup of GNNerator over HyGCN (GCN) ===\n";
  util::Table table({"", "Cora", "Citeseer", "Pubmed"});
  std::vector<std::string> unblocked_row{"GNNerator w/o blocking"};
  std::vector<std::string> blocked_row{"GNNerator"};
  for (const baseline::Table5Column& column : ledger.table5) {
    unblocked_row.push_back(util::Table::speedup(column.speedup_unblocked));
    blocked_row.push_back(util::Table::speedup(column.speedup_blocked));
  }
  table.add_row(unblocked_row);
  table.add_row(blocked_row);
  std::cout << table.to_string();
  std::cout << "\nPaper: w/o blocking 1.8x / 0.8x / 1.0x; with blocking 3.8x / 3.2x / 2.3x\n"
               "(average 3.15x). HyGCN's sparsity elimination is modelled (window rows\n"
               "without edges are not fetched), reproducing its dataset-dependent gain.\n";
}

void print_fig5(const baseline::PaperLedger& ledger) {
  std::cout << "\n=== Fig. 5: next-generation GNNerator scaling (speedup vs base) ===\n";
  util::Table table({"Benchmark", "More Graph Engine Memory", "More DNN Engine Compute",
                     "More Feature Memory Bandwidth"});
  for (const baseline::Fig5Row& row : ledger.fig5) {
    std::vector<std::string> cells{row.name};
    for (const baseline::PaperRun& run : row.variants) {
      cells.push_back(util::Table::speedup(run.speedup));
    }
    table.add_row(cells);
  }
  table.add_separator();
  std::vector<std::string> gmean_row{"Gmean"};
  for (const double gmean : ledger.fig5_gmean) {
    gmean_row.push_back(util::Table::speedup(gmean));
  }
  table.add_row(gmean_row);
  std::cout << table.to_string();
  std::cout << "\nPaper: bandwidth helps small hidden dims, Dense Engine compute wins at\n"
               "large hidden dims (up to ~2.6x); Gmeans ~1.1x / 1.4x / 1.4x.\n";
}

bench::JsonReport to_json(const baseline::PaperLedger& ledger) {
  bench::JsonReport json;
  for (const baseline::Fig3Row& row : ledger.fig3) {
    const std::string key = "fig3." + row.name;
    json.set(key + ".gpu_ms", row.gpu_ms);
    json.set(key + ".blocked.cycles", row.blocked.cycles);
    json.set(key + ".blocked.speedup", row.blocked.speedup);
    json.set(key + ".unblocked.cycles", row.unblocked.cycles);
    json.set(key + ".unblocked.speedup", row.unblocked.speedup);
  }
  for (const baseline::Table5Column& column : ledger.table5) {
    json.set("table5." + column.dataset + ".hygcn_cycles", column.hygcn_cycles);
  }
  for (const baseline::Fig5Row& row : ledger.fig5) {
    const std::string key = "fig5." + row.name;
    json.set(key + ".base.cycles", row.base_cycles);
    for (std::size_t v = 0; v < baseline::kFig5Variants.size(); ++v) {
      const std::string variant = key + "." + std::string(baseline::kFig5Variants[v]);
      json.set(variant + ".cycles", row.variants[v].cycles);
      json.set(variant + ".speedup", row.variants[v].speedup);
    }
  }
  for (const baseline::PaperClaim& claim : ledger.claims()) {
    json.set("fidelity." + claim.name, claim.measured);
    json.set("fidelity." + claim.name + ".paper", claim.paper);
  }
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  return util::cli_main(argc, argv, "[--json <path>]", [](const util::Args& args) {
    std::map<std::string, std::uint64_t> cycles;
    for (const baseline::PaperPoint& point : baseline::paper_points()) {
      bench::dataset(point.request.dataset);  // registers it with the engine
      cycles[point.label] = bench::engine().run(point.request).cycles;
    }
    const baseline::PaperLedger ledger = baseline::paper_ledger(cycles, bench::dataset);
    print_fig3(ledger);
    print_table5(ledger);
    print_fig5(ledger);

    const std::string json_path = args.get("json");
    if (!json_path.empty()) {
      if (!to_json(ledger).write(json_path)) {
        std::cerr << "error: cannot write JSON to " << json_path << '\n';
        return 1;
      }
      std::cout << "Wrote " << json_path << '\n';
    }
    return 0;
  });
}
