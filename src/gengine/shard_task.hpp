#pragma once

#include <cstdint>

#include "sim/sync.hpp"

namespace gnnerator::gengine {

/// One unit of Graph Engine work: process one shard of the 2-D grid for one
/// feature-dimension block (one iteration of the src loop in Algorithm 1).
/// As with GemmOp, the compiler decides residency — a zero byte count means
/// the data is already on-chip (stationary interval features, cached edge
/// list). Timing-only: the Apply/Reduce arithmetic runs in the functional
/// executor, which reads the descriptor `core::AggWork` adds to this.
struct ShardTask {
  /// DRAM read for the shard's edge list; 0 when the edge scratchpad still
  /// holds it from a previous block pass (the paper's on-chip edge
  /// re-processing).
  std::uint64_t edge_dma_bytes = 0;
  /// DRAM read for source features of this shard's block (Shard Feature
  /// Fetch Unit); 0 when the source interval is stationary-resident.
  std::uint64_t src_dma_bytes = 0;
  /// DRAM read reloading partially-aggregated destination accumulators
  /// (src-stationary traversal revisits columns).
  std::uint64_t dst_load_bytes = 0;
  /// DRAM write of destination accumulators after this task (Shard
  /// Writeback Unit): per shard for src-stationary partials, at column end
  /// for dst-stationary final values, 0 when handed to the Dense Engine
  /// through the shared scratchpad.
  std::uint64_t dst_write_bytes = 0;

  /// On-chip edge-buffer traffic when re-scanning a cached edge list
  /// (statistics only; SRAM bandwidth is not a bottleneck by construction).
  std::uint64_t onchip_edge_bytes = 0;

  std::uint32_t num_edges = 0;
  /// Shard Compute Unit occupancy (precomputed via shard_compute_cycles;
  /// the engine occupies the unit for at least one cycle).
  std::uint64_t compute_cycles = 0;
  /// Apply + Reduce lane operations performed by this task (stats/energy).
  std::uint64_t lane_ops = 0;

  /// Stall until signalled (dense-first hand-off: the z block for this
  /// shard's source interval must have been produced).
  sim::TokenId wait_token = sim::kNoToken;
  /// Signalled at completion (graph-first hand-off: destination column
  /// aggregated for this block).
  sim::TokenId produce_token = sim::kNoToken;
  /// If true, produce_token fires when the writeback DMA completes (the
  /// consumer reads from DRAM); otherwise at compute completion (consumer
  /// reads the shared scratchpad).
  bool signal_after_writeback = false;

  /// Trace tag (unique per task within a plan).
  std::uint32_t tag = 0;
};

}  // namespace gnnerator::gengine
