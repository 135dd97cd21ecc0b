#pragma once

#include <string>

#include "core/accelerator.hpp"
#include "core/energy.hpp"
#include "core/plan.hpp"

namespace gnnerator::core {

/// Digested view of one simulated inference, for human-readable reporting
/// (the quickstart and compare_platforms examples) and for tests that assert
/// high-level balance properties without grubbing through raw counters.
struct ExecutionReport {
  std::uint64_t cycles = 0;
  double milliseconds = 0.0;

  // Engine occupancy.
  double dense_busy_frac = 0.0;   ///< dense busy cycles / total
  double graph_busy_frac = 0.0;
  double dense_array_util = 0.0;  ///< MACs / (busy cycles * array MACs/cycle)
  double graph_lane_util = 0.0;   ///< lane ops / (busy cycles * lanes)
  std::uint64_t dense_stall_token_cycles = 0;
  std::uint64_t graph_stall_token_cycles = 0;

  // Off-chip traffic.
  std::uint64_t dram_read_bytes = 0;
  std::uint64_t dram_write_bytes = 0;
  double dram_bw_util = 0.0;  ///< bytes moved / (cycles * peak bytes/cycle)
  std::uint64_t feature_read_bytes = 0;  ///< graph-engine source gathers
  std::uint64_t edge_read_bytes = 0;

  // Work.
  std::uint64_t dense_macs = 0;
  std::uint64_t graph_lane_ops = 0;
  std::uint64_t edges_processed = 0;

  EnergyBreakdown energy;
};

/// Builds the report from a run result and the plan's configuration.
[[nodiscard]] ExecutionReport make_report(const ExecutionResult& result,
                                          const LoweredModel& plan);

/// Multi-line rendering (fixed-width labels, paper-style units).
[[nodiscard]] std::string format_report(const ExecutionReport& report);

}  // namespace gnnerator::core
