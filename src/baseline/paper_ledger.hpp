#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/gnnerator.hpp"
#include "graph/datasets.hpp"

namespace gnnerator::baseline {

// The paper's headline comparisons, computed from simulated GNNerator
// cycles in one place:
//  * Fig. 3: speedup over the RTX 2080 Ti model (GpuModel) for the nine
//    Table II x Table III points, with and without feature blocking;
//  * Table V: speedup over the HyGCN model (HygcnModel, sparsity
//    elimination on) for GCN, from the Fig. 3 GCN points;
//  * Fig. 5: the next-generation variants over the Table IV baseline for
//    GCN at hidden {16, 128, 1024}, with B pinned to 64.
// Every baseline, speedup and geomean comes from the cycles the caller
// passes in; the ledger simulates nothing on GNNerator itself.

/// One GNNerator simulation the ledger needs. Labels read
/// "fig3/<dataset>-<model>/<blocked|unblocked>" and
/// "fig5/<dataset>-<hidden>/<variant>", e.g. "fig3/pubmed-gsage-max/blocked"
/// or "fig5/cora-128/2x-dense".
struct PaperPoint {
  std::string label;
  /// Complete Engine request: dataset id, model, config and dataflow.
  core::SimulationRequest request;
};

/// Every point of Fig. 3 (Table V reuses its GCN points) and Fig. 5, in the
/// order the paper's tables list them.
[[nodiscard]] std::vector<PaperPoint> paper_points();

/// The Fig. 5 variants, in column order.
inline constexpr std::array<std::string_view, 3> kFig5Variants = {"2x-graph-mem", "2x-dense",
                                                                  "2x-bw"};

/// A simulated point and its speedup over what it is compared with.
struct PaperRun {
  std::uint64_t cycles = 0;
  double ms = 0.0;
  double speedup = 0.0;
};

/// A Fig. 3 benchmark ("cora-gcn" ... "pub-gsage-max"): speedups over the GPU.
struct Fig3Row {
  std::string name;
  double gpu_ms = 0.0;
  PaperRun blocked;
  PaperRun unblocked;
};

/// A Table V dataset: HyGCN over GNNerator GCN time.
struct Table5Column {
  std::string dataset;
  std::uint64_t hygcn_cycles = 0;
  double speedup_blocked = 0.0;
  double speedup_unblocked = 0.0;
};

/// A Fig. 5 benchmark ("Cora-16" ... "Pubmed-1024"): each variant's speedup
/// over the Table IV baseline.
struct Fig5Row {
  std::string name;
  std::uint64_t base_cycles = 0;
  std::array<PaperRun, kFig5Variants.size()> variants;
};

/// A headline number beside the paper's value. Names are gnnbench's
/// fidelity metrics without their "fidelity." prefix.
struct PaperClaim {
  std::string name;
  double measured = 0.0;
  double paper = 0.0;
};

struct PaperLedger {
  std::vector<Fig3Row> fig3;
  double fig3_gmean_blocked = 0.0;
  double fig3_gmean_unblocked = 0.0;
  std::vector<Table5Column> table5;
  std::vector<Fig5Row> fig5;
  std::array<double, kFig5Variants.size()> fig5_gmean{};

  /// Fig. 3 geomeans, Table V and Fig. 5 geomeans against the paper.
  [[nodiscard]] std::vector<PaperClaim> claims() const;
};

/// Returns the registered dataset with the given name.
using DatasetLookup = std::function<const graph::Dataset&(const std::string&)>;

/// Computes the ledger from the simulated cycles of every paper_points()
/// label (other labels are ignored). `dataset` supplies the graphs the GPU
/// and HyGCN baselines are evaluated on. Throws CheckError when a label is
/// missing.
[[nodiscard]] PaperLedger paper_ledger(const std::map<std::string, std::uint64_t>& cycles,
                                       const DatasetLookup& dataset);

}  // namespace gnnerator::baseline
