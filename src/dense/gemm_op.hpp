#pragma once

#include <cstdint>

#include "dense/systolic.hpp"
#include "sim/sync.hpp"

namespace gnnerator::dense {

/// One unit of Dense Engine work: a (possibly partial) GEMM whose operands
/// have explicit off-chip traffic. The compiler — not the engine — decides
/// operand residency: an operand already on-chip (weights cached across
/// columns, aggregated features handed over through the shared feature
/// scratchpad, psums resident in the output buffer) has zero DMA bytes.
/// Timing-only: the arithmetic runs in the functional executor, which reads
/// the descriptor `core::GemmWork` adds to this.
struct GemmOp {
  GemmShape shape;

  /// DRAM read traffic for the activation tile (0 => on-chip, e.g. read
  /// from the Graph Engine's accumulator buffer through the shared
  /// scratchpad, or reused from the previous op).
  std::uint64_t a_dma_bytes = 0;
  /// DRAM read traffic for the weight tile (0 => resident in the weight
  /// buffer from an earlier op).
  std::uint64_t w_dma_bytes = 0;
  /// DRAM read traffic for reloading partial sums (feature-blocking spills
  /// when the full psum footprint exceeds the output buffer).
  std::uint64_t psum_read_bytes = 0;
  /// DRAM write traffic after compute (psum spill or final result
  /// writeback; 0 => stays on-chip).
  std::uint64_t out_write_bytes = 0;

  /// Controller interlock: the op's operand fetch stalls until this token
  /// is signalled (graph-first hand-off). kNoToken => no dependency.
  sim::TokenId wait_token = sim::kNoToken;
  /// Signalled when the op completes (including its writeback if any) —
  /// dense-first hand-off to the Graph Engine.
  sim::TokenId produce_token = sim::kNoToken;

  /// Trace tag (unique per op within a plan).
  std::uint32_t tag = 0;
};

}  // namespace gnnerator::dense
