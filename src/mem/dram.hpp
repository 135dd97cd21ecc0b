#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/stats.hpp"

namespace gnnerator::mem {

/// Direction of a DMA transfer, from the accelerator's point of view.
enum class MemOp { kRead, kWrite };

/// Handle for an in-flight DMA transfer.
using DmaId = std::uint64_t;
inline constexpr DmaId kInvalidDma = std::numeric_limits<DmaId>::max();

/// Handle for a DMA client: a traffic stream with its own byte counter.
using DmaClient = std::uint32_t;

/// Bandwidth-arbitrated off-chip memory model (the paper's shared "feature
/// memory DRAM", Table IV: 256 GB/s for GNNerator and HyGCN, 616 GB/s for
/// the 2080 Ti).
///
/// Model: a total grant budget of `bytes_per_cycle` is distributed
/// round-robin over all outstanding transfers in units of
/// `transaction_bytes` (a transfer's byte count is first rounded up to the
/// transaction size — a 4-byte read still occupies a 64 B burst, which is
/// exactly the gather-granularity waste that makes sparse feature access
/// expensive). A transfer completes `latency_cycles` after its last byte is
/// granted.
///
/// Engines submit transfers and poll for completion; the round-robin cursor
/// makes concurrent clients (Dense Engine, Graph Engine units) share
/// bandwidth fairly, which is how the two memory controllers of the paper
/// contend for the same DRAM channels.
///
/// Event-driven support: the grant credit is carried in exact rational
/// arithmetic — `bytes_per_cycle / transaction_bytes` is decomposed into an
/// irreducible fraction p/q of transactions per cycle (any double is a
/// dyadic rational, so the decomposition is exact), and the credit
/// accumulator counts q-ths of a transaction. The whole round-robin grant
/// schedule is then computable in closed form for *any* bandwidth,
/// fractional or not: cumulative grantable transactions after k cycles are
/// floor((credit + k*p) / q), so the cycle at which any transfer's last
/// transaction lands (and hence its completion cycle) is known the moment
/// it is queued. `next_event`/`skip` exploit this to jump over both grant
/// epochs and latency shadows with no exact-stepping fallback.
class DramModel : public sim::Component {
 public:
  struct Config {
    double bytes_per_cycle = 256.0;  ///< 256 GB/s at 1 GHz
    sim::Cycle latency_cycles = 100;
    std::uint64_t transaction_bytes = 64;
  };

  explicit DramModel(Config config, std::string name = "dram");

  /// Returns the id of the client `name`, registering it on first use.
  /// Clients intern once, when their engine is built; the traffic they
  /// submit is exported as "dram.bytes.<name>".
  DmaClient intern_client(std::string_view name);

  /// Queues a transfer of `bytes` (rounded up to whole transactions) and
  /// counts them against `client`, an id from intern_client. Zero-byte
  /// submissions are legal, complete immediately and touch no DRAM state or
  /// counter.
  DmaId submit(MemOp op, std::uint64_t bytes, DmaClient client);

  /// True once the transfer has fully completed (all bytes granted and the
  /// latency elapsed). Polling an unknown/already-collected id is an error.
  [[nodiscard]] bool is_complete(DmaId id) const;

  /// Forgets a completed transfer, so memory stays bounded by the span from
  /// the oldest uncollected transfer to the newest. Must be complete.
  void collect(DmaId id);

  /// Predicted cycle at which `is_complete(id)` first turns true for a
  /// component polling after this model's tick of that cycle. Always
  /// computable (rational-credit closed form). Values at or before the
  /// current cycle mean "already visible".
  [[nodiscard]] sim::Cycle complete_visible_at(DmaId id) const;

  void tick(sim::Cycle now) override;
  [[nodiscard]] bool busy() const override;
  [[nodiscard]] sim::Cycle next_event(sim::Cycle now) const override;
  void skip(sim::Cycle from, sim::Cycle to) override;

  [[nodiscard]] const Config& config() const { return config_; }

  /// Adds every counter this model touched to `out` as "dram.<name>".
  void export_stats(sim::StatSet& out) const;
  /// The same names and values, exported into a fresh set.
  [[nodiscard]] sim::StatSet stats() const;

 private:
  enum class Stat { kReadBytes, kWriteBytes, kTransfers, kBusyCycles, kGrantedBytes, kCount };

  struct Transfer {
    std::uint64_t remaining = 0;           // bytes still to grant
    sim::Cycle complete_at = 0;            // valid once remaining == 0
    bool last_byte_granted = false;
    bool collected = false;
  };
  /// A transfer's remaining grants, in skip's snapshot of active_.
  struct Demand {
    DmaId id = kInvalidDma;
    std::uint64_t txns = 0;
  };

  /// The live transfer `id`; throws CheckError naming `action` for an id
  /// never submitted or already collected.
  [[nodiscard]] Transfer& transfer(DmaId id, const char* action);
  [[nodiscard]] const Transfer& transfer(DmaId id, const char* action) const;
  /// Drops the landing completions that the last tick made visible.
  void forget_landed();

  /// 1-based index, in the global round-robin grant sequence starting from
  /// the current deque state, of `id`'s final transaction.
  [[nodiscard]] std::uint64_t finish_grant_index(DmaId id) const;
  /// Smallest k >= 1 such that k more cycles of credit cover the n-th
  /// transaction of the global grant sequence (closed form; see class
  /// comment).
  [[nodiscard]] std::uint64_t cycles_for_grants(std::uint64_t n) const;

  Config config_;
  sim::Counters<Stat> stats_;
  /// Per-client bytes and their stat names ("dram.bytes.<client>"), both
  /// indexed by DmaClient.
  std::vector<std::string> client_stat_names_;
  std::vector<std::uint64_t> client_bytes_;
  /// Ids are sequential: transfers_[i] is id first_id_ + i. The first head_
  /// entries are collected; that prefix is erased once it is half the
  /// table.
  std::vector<Transfer> transfers_;
  std::size_t head_ = 0;
  DmaId first_id_ = 0;
  DmaId next_id_ = 0;
  std::deque<DmaId> active_;       // transfers with remaining > 0, RR order
  /// Completion cycles of transfers whose last byte is granted but which
  /// are not yet visible (the latency shadow). With active_, these are the
  /// transfers in flight.
  std::vector<sim::Cycle> landing_;
  /// skip's working buffers, kept so that a skip allocates nothing once
  /// they have grown.
  std::vector<Demand> demand_;
  std::vector<DmaId> served_;
  /// Grant rate as an irreducible fraction: rate_num_ / rate_den_
  /// transactions per cycle (exact dyadic decomposition of
  /// bytes_per_cycle / transaction_bytes).
  std::uint64_t rate_num_ = 1;
  std::uint64_t rate_den_ = 1;
  /// Banked credit in rate_den_-ths of a transaction. While demand is
  /// pending this stays below one transaction (rate_den_); it is topped up
  /// to exactly one cycle's budget (rate_num_) when the model idles — DRAM
  /// cannot burst above its pin bandwidth.
  std::uint64_t credit_ = 0;
  sim::Cycle last_tick_ = 0;
};

}  // namespace gnnerator::mem
