// Tests for the memory substrate: DRAM bandwidth arbitration, latency,
// transaction rounding, fairness, the transfer table and per-client
// counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "mem/dram.hpp"
#include "sim/kernel.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"
#include "util/units.hpp"

namespace gnnerator::mem {
namespace {

/// Ticks the DRAM until the given transfer completes; returns cycles taken.
sim::Cycle run_until_complete(DramModel& dram, DmaId id, sim::Cycle limit = 100000) {
  sim::Cycle now = 0;
  while (!dram.is_complete(id)) {
    dram.tick(now++);
    GNNERATOR_CHECK(now < limit);
  }
  return now;
}

/// Submits under a client named "test".
DmaId submit_test(DramModel& dram, MemOp op, std::uint64_t bytes) {
  return dram.submit(op, bytes, dram.intern_client("test"));
}

DramModel::Config fast_config() {
  DramModel::Config c;
  c.bytes_per_cycle = 256.0;
  c.latency_cycles = 10;
  c.transaction_bytes = 64;
  return c;
}

TEST(Dram, BandwidthBoundsTransferTime) {
  DramModel dram(fast_config());
  // 256 KiB at 256 B/cycle: >= 1024 cycles of grants + latency.
  const DmaId id = submit_test(dram, MemOp::kRead, 256 * util::kKiB);
  const sim::Cycle cycles = run_until_complete(dram, id);
  EXPECT_GE(cycles, 1024u);
  EXPECT_LE(cycles, 1024u + 10u + 2u);
}

TEST(Dram, LatencyAppliedAfterLastByte) {
  DramModel dram(fast_config());
  const DmaId id = submit_test(dram, MemOp::kRead, 64);
  // One transaction granted in cycle 0; completes at 0 + latency.
  const sim::Cycle cycles = run_until_complete(dram, id);
  EXPECT_GE(cycles, 10u);
  EXPECT_LE(cycles, 12u);
}

TEST(Dram, ZeroByteTransfersCompleteImmediately) {
  DramModel dram(fast_config());
  const DmaId id = submit_test(dram, MemOp::kRead, 0);
  EXPECT_TRUE(dram.is_complete(id));
  EXPECT_FALSE(dram.busy());
  dram.collect(id);
}

TEST(Dram, RoundsUpToTransactionSize) {
  DramModel dram(fast_config());
  submit_test(dram, MemOp::kRead, 1);
  EXPECT_EQ(dram.stats().get("dram.read_bytes"), 64u);
  submit_test(dram, MemOp::kWrite, 65);
  EXPECT_EQ(dram.stats().get("dram.write_bytes"), 128u);
}

TEST(Dram, FairRoundRobinBetweenClients) {
  DramModel dram(fast_config());
  const DmaId a = dram.submit(MemOp::kRead, 64 * util::kKiB, dram.intern_client("a"));
  const DmaId b = dram.submit(MemOp::kRead, 64 * util::kKiB, dram.intern_client("b"));
  sim::Cycle now = 0;
  while (!dram.is_complete(a) || !dram.is_complete(b)) {
    dram.tick(now++);
    GNNERATOR_CHECK(now < 10000);
  }
  // Equal-size concurrent transfers must finish within a whisker of each
  // other: both take ~2x the solo time.
  const auto solo_grant_cycles = 64 * util::kKiB / 256;
  EXPECT_GE(now, 2 * solo_grant_cycles);
  EXPECT_LE(now, 2 * solo_grant_cycles + 16);
}

TEST(Dram, ConcurrentTransfersShareBandwidth) {
  // One long and one short transfer: the short one should not wait for the
  // long one to finish (round-robin, not FIFO).
  DramModel dram(fast_config());
  const DmaId long_id = dram.submit(MemOp::kRead, 256 * util::kKiB, dram.intern_client("long"));
  const DmaId short_id = dram.submit(MemOp::kRead, 4 * util::kKiB, dram.intern_client("short"));
  const sim::Cycle short_done = run_until_complete(dram, short_id);
  EXPECT_FALSE(dram.is_complete(long_id));
  // Short transfer: 64 transactions at ~half bandwidth => ~32+ cycles, far
  // below the 1024 grant cycles of the long one.
  EXPECT_LT(short_done, 200u);
}

TEST(Dram, PerClientTrafficAccounted) {
  DramModel dram(fast_config());
  const DmaClient alpha = dram.intern_client("alpha");
  const DmaClient beta = dram.intern_client("beta");
  EXPECT_NE(alpha, beta);
  EXPECT_EQ(dram.intern_client("alpha"), alpha) << "a name interns to one id";
  dram.submit(MemOp::kRead, 128, alpha);
  dram.submit(MemOp::kWrite, 64, beta);
  EXPECT_EQ(dram.stats().get("dram.bytes.alpha"), 128u);
  EXPECT_EQ(dram.stats().get("dram.bytes.beta"), 64u);
  EXPECT_THROW(dram.submit(MemOp::kRead, 64, beta + 1), util::CheckError);
}

TEST(Dram, ZeroByteClientExportsNoCounter) {
  // A zero-byte transfer touches no counter, so a client that only ever
  // submits those adds no key at all, not even a zero.
  DramModel dram(fast_config());
  const DmaClient idle = dram.intern_client("idle");
  dram.collect(dram.submit(MemOp::kRead, 0, idle));
  dram.collect(dram.submit(MemOp::kWrite, 0, idle));
  EXPECT_TRUE(dram.stats().counters().empty());

  dram.submit(MemOp::kRead, 64, dram.intern_client("busy"));
  const sim::StatSet stats = dram.stats();
  EXPECT_EQ(stats.counters().count("dram.bytes.idle"), 0u);
  EXPECT_EQ(stats.get("dram.bytes.busy"), 64u);
  EXPECT_EQ(stats.get("dram.transfers"), 1u);
  EXPECT_EQ(stats.get("dram.read_bytes"), 64u);
  EXPECT_EQ(stats.counters().count("dram.write_bytes"), 0u);
}

TEST(Dram, PollingUnknownIdThrows) {
  DramModel dram(fast_config());
  EXPECT_THROW((void)dram.is_complete(99), util::CheckError);
  EXPECT_THROW((void)dram.complete_visible_at(99), util::CheckError);
}

TEST(Dram, TransferTableSurvivesShuffledCollection) {
  // About 10k transfers over three clients, submitted in random bursts and
  // collected as they complete, each tick's batch in shuffled order. A long
  // transfer every 97th keeps older ids live while newer ones are
  // collected. Every collected id must be forgotten at once (polling,
  // predicting and collecting it throw), wherever it sits among live ones;
  // every live id must still answer (the per-tick scan polls them all).
  DramModel dram(fast_config());
  const DmaClient clients[] = {dram.intern_client("a"), dram.intern_client("b"),
                               dram.intern_client("c")};
  std::uint64_t expected_bytes[3] = {};
  std::uint64_t expected_transfers = 0;
  util::Prng prng(7);
  constexpr int kTransfers = 10000;
  int submitted = 0;
  std::size_t collected = 0;
  std::vector<DmaId> live;
  sim::Cycle now = 0;
  while (submitted < kTransfers || !live.empty()) {
    for (auto burst = prng.uniform_u64(4); burst > 0 && submitted < kTransfers; --burst) {
      const auto client = prng.uniform_u64(3);
      const std::uint64_t bytes =
          submitted % 97 == 0 ? 16 * util::kKiB : prng.uniform_u64(256);  // some zero-byte
      live.push_back(dram.submit(MemOp::kRead, bytes, clients[client]));
      expected_bytes[client] += util::round_up(bytes, 64);
      expected_transfers += bytes > 0 ? 1 : 0;
      ++submitted;
    }
    dram.tick(now++);
    ASSERT_LT(now, 1000000u);

    std::vector<DmaId> done;
    std::erase_if(live, [&](DmaId id) {
      if (dram.is_complete(id)) {
        done.push_back(id);
        return true;
      }
      return false;
    });
    for (const std::uint32_t i : prng.permutation(static_cast<std::uint32_t>(done.size()))) {
      dram.collect(done[i]);
      ++collected;
      EXPECT_THROW((void)dram.is_complete(done[i]), util::CheckError);
      EXPECT_THROW((void)dram.complete_visible_at(done[i]), util::CheckError);
      EXPECT_THROW(dram.collect(done[i]), util::CheckError);
    }
  }
  EXPECT_EQ(collected, static_cast<std::size_t>(kTransfers));
  EXPECT_FALSE(dram.busy());
  const sim::StatSet stats = dram.stats();
  EXPECT_EQ(stats.get("dram.bytes.a"), expected_bytes[0]);
  EXPECT_EQ(stats.get("dram.bytes.b"), expected_bytes[1]);
  EXPECT_EQ(stats.get("dram.bytes.c"), expected_bytes[2]);
  EXPECT_EQ(stats.get("dram.transfers"), expected_transfers);
}

TEST(Dram, CollectRequiresCompletion) {
  DramModel dram(fast_config());
  const DmaId id = submit_test(dram, MemOp::kRead, 1024);
  EXPECT_THROW(dram.collect(id), util::CheckError);
  run_until_complete(dram, id);
  EXPECT_NO_THROW(dram.collect(id));
  EXPECT_THROW((void)dram.is_complete(id), util::CheckError);  // forgotten
}

TEST(Dram, FractionalBandwidthAccumulates) {
  DramModel::Config c;
  c.bytes_per_cycle = 32.0;  // half a transaction per cycle
  c.latency_cycles = 0;
  c.transaction_bytes = 64;
  DramModel dram(c);
  const DmaId id = submit_test(dram, MemOp::kRead, 640);  // 10 transactions
  const sim::Cycle cycles = run_until_complete(dram, id);
  EXPECT_GE(cycles, 19u);  // 640 B / 32 B-per-cycle = 20
  EXPECT_LE(cycles, 22u);
}

TEST(Dram, SubHalfTransactionRatesStillMakeProgress) {
  // Rates below half a transaction per cycle used to be starved by the
  // pin-bandwidth cap (credit was clamped to one cycle's budget *while
  // accumulating*); the rational credit only caps once demand is drained.
  DramModel::Config c;
  c.bytes_per_cycle = 16.0;  // a quarter transaction per cycle
  c.latency_cycles = 0;
  c.transaction_bytes = 64;
  DramModel dram(c);
  const DmaId id = submit_test(dram, MemOp::kRead, 256);  // 4 transactions
  const sim::Cycle cycles = run_until_complete(dram, id);
  EXPECT_GE(cycles, 15u);  // 256 B / 16 B-per-cycle = 16
  EXPECT_LE(cycles, 18u);
}

TEST(Dram, FractionalRatePredictionMatchesStepping) {
  // complete_visible_at's rational closed form must name the exact cycle a
  // poller first observes completion, for rates that are not whole
  // transactions per cycle (including non-dyadic decimals like 409.6).
  for (const double bytes_per_cycle : {48.0, 100.0, 409.6, 16.0}) {
    SCOPED_TRACE(bytes_per_cycle);
    DramModel::Config c;
    c.bytes_per_cycle = bytes_per_cycle;
    c.latency_cycles = 10;
    c.transaction_bytes = 64;
    DramModel dram(c);
    const DmaId a = submit_test(dram, MemOp::kRead, 1024);
    const DmaId b = submit_test(dram, MemOp::kRead, 64);
    dram.tick(0);
    const sim::Cycle predicted_a = dram.complete_visible_at(a);
    const sim::Cycle predicted_b = dram.complete_visible_at(b);
    sim::Cycle now = 1;
    std::map<DmaId, sim::Cycle> first_visible;
    while (dram.busy()) {
      dram.tick(now);
      for (const DmaId id : {a, b}) {
        if (dram.is_complete(id) && first_visible.find(id) == first_visible.end()) {
          first_visible[id] = now;
        }
      }
      ++now;
    }
    EXPECT_EQ(first_visible.at(a), predicted_a);
    EXPECT_EQ(first_visible.at(b), predicted_b);
  }
}

TEST(Dram, BusyReflectsOutstandingWork) {
  DramModel dram(fast_config());
  EXPECT_FALSE(dram.busy());
  const DmaId id = submit_test(dram, MemOp::kRead, 1024);
  EXPECT_TRUE(dram.busy());
  run_until_complete(dram, id);
  dram.collect(id);
  EXPECT_FALSE(dram.busy());
}

}  // namespace
}  // namespace gnnerator::mem
