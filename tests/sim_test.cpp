// Tests for the simulation kernel: component scheduling, counters, the
// synchronisation scoreboard and the tracer.
#include <gtest/gtest.h>

#include "sim/kernel.hpp"
#include "sim/stats.hpp"
#include "sim/sync.hpp"
#include "sim/trace.hpp"
#include "util/check.hpp"

namespace gnnerator::sim {
namespace {

/// Counts down `work` ticks, recording the cycle of each tick.
class CountdownComponent : public Component {
 public:
  CountdownComponent(std::string name, int work) : Component(std::move(name)), work_(work) {}

  void tick(Cycle now) override {
    if (work_ > 0) {
      --work_;
      last_tick_ = now;
      ++ticks_;
    }
  }
  [[nodiscard]] bool busy() const override { return work_ > 0; }

  int ticks_ = 0;
  Cycle last_tick_ = 0;

 private:
  int work_;
};

TEST(Kernel, RunsUntilAllIdle) {
  CountdownComponent a("a", 3);
  CountdownComponent b("b", 7);
  SimKernel kernel;
  kernel.add(a);
  kernel.add(b);
  const Cycle end = kernel.run();
  EXPECT_EQ(end, 7u);
  EXPECT_EQ(a.ticks_, 3);
  EXPECT_EQ(b.ticks_, 7);
}

TEST(Kernel, ZeroWorkFinishesAtCycleZero) {
  CountdownComponent a("a", 0);
  SimKernel kernel;
  kernel.add(a);
  EXPECT_EQ(kernel.run(), 0u);
}

TEST(Kernel, ThrowsOnCycleLimit) {
  /// Never finishes.
  class Stuck : public Component {
   public:
    Stuck() : Component("stuck") {}
    void tick(Cycle) override {}
    [[nodiscard]] bool busy() const override { return true; }
  } stuck;
  SimKernel kernel;
  kernel.add(stuck);
  EXPECT_THROW(kernel.run(100), util::CheckError);
}

TEST(Kernel, TickOrderFollowsRegistration) {
  /// Records a shared sequence to verify per-cycle ordering.
  static std::vector<int>* sequence = nullptr;
  std::vector<int> seq;
  sequence = &seq;
  class Ordered : public Component {
   public:
    Ordered(std::string name, int id, int work)
        : Component(std::move(name)), id_(id), work_(work) {}
    void tick(Cycle) override {
      if (work_ > 0) {
        --work_;
        sequence->push_back(id_);
      }
    }
    [[nodiscard]] bool busy() const override { return work_ > 0; }

   private:
    int id_;
    int work_;
  };
  Ordered first("first", 1, 2);
  Ordered second("second", 2, 2);
  SimKernel kernel;
  kernel.add(first);
  kernel.add(second);
  kernel.run();
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_EQ(seq[0], 1);
  EXPECT_EQ(seq[1], 2);
  EXPECT_EQ(seq[2], 1);
  EXPECT_EQ(seq[3], 2);
}

// ----------------------------------------------------------------- stats --
TEST(Stats, AddAndGet) {
  StatSet s;
  s.add("x");
  s.add("x", 4);
  EXPECT_EQ(s.get("x"), 5u);
  EXPECT_EQ(s.get("missing"), 0u);
}

TEST(Stats, ToStringListsCounters) {
  StatSet s;
  s.add("cycles", 1234);
  EXPECT_NE(s.to_string().find("cycles"), std::string::npos);
  EXPECT_NE(s.to_string().find("1,234"), std::string::npos);
}

// ------------------------------------------------------------------ sync --
TEST(Sync, SignalAndQuery) {
  SyncBoard board;
  const TokenId t = board.create("t0");
  EXPECT_FALSE(board.is_signaled(t));
  board.signal(t);
  EXPECT_TRUE(board.is_signaled(t));
  EXPECT_EQ(board.num_signaled(), 1u);
}

TEST(Sync, NoTokenAlwaysSatisfied) {
  SyncBoard board;
  EXPECT_TRUE(board.is_signaled(kNoToken));
}

TEST(Sync, DoubleSignalThrows) {
  SyncBoard board;
  const TokenId t = board.create("t0");
  board.signal(t);
  EXPECT_THROW(board.signal(t), util::CheckError);
}

TEST(Sync, UnknownTokenThrows) {
  SyncBoard board;
  EXPECT_THROW(board.signal(5), util::CheckError);
  EXPECT_THROW((void)board.is_signaled(5), util::CheckError);
}

TEST(Sync, PendingNamesForDiagnostics) {
  SyncBoard board;
  board.create("alpha");
  const TokenId b = board.create("beta");
  board.signal(b);
  const auto pending = board.pending_names();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0], "alpha");
}

// ----------------------------------------------------------------- trace --
TEST(Trace, DisabledTracerDropsEvents) {
  Tracer tracer;
  tracer.emit(1, "c", "event");
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Trace, RecordsAndFormats) {
  Tracer tracer;
  tracer.enable();
  tracer.emit(5, "dense", "gemm start");
  tracer.emit(9, "graph", "shard done");
  ASSERT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.events()[0].cycle, 5u);
  const std::string s = tracer.to_string();
  EXPECT_NE(s.find("dense: gemm start"), std::string::npos);
  EXPECT_NE(s.find("9 graph"), std::string::npos);
}

TEST(Trace, RespectsEventCap) {
  Tracer tracer;
  tracer.enable(/*max_events=*/3);
  for (int i = 0; i < 10; ++i) {
    tracer.emit(static_cast<Cycle>(i), "c", "e");
  }
  EXPECT_EQ(tracer.events().size(), 3u);
}

TEST(Trace, CountsDroppedEventsAndReportsTruncation) {
  Tracer tracer;
  tracer.enable(/*max_events=*/3);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_FALSE(tracer.truncated());
  for (int i = 0; i < 10; ++i) {
    tracer.emit(static_cast<Cycle>(i), "c", "e");
  }
  EXPECT_EQ(tracer.dropped(), 7u);
  EXPECT_TRUE(tracer.truncated());
  // The formatter must announce the truncation, not render a silently
  // complete-looking trace.
  const std::string s = tracer.to_string();
  EXPECT_NE(s.find("7"), std::string::npos) << s;
  EXPECT_NE(s.find("dropped"), std::string::npos) << s;

  // clear() and enable() both reset the counter.
  tracer.clear();
  EXPECT_EQ(tracer.dropped(), 0u);
  tracer.emit(0, "c", "e");
  tracer.emit(1, "c", "e");
  tracer.emit(2, "c", "e");
  tracer.emit(3, "c", "e");
  EXPECT_EQ(tracer.dropped(), 1u);
  tracer.enable(/*max_events=*/3);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.to_string().find("dropped"), std::string::npos);

  // Events ignored while disabled are not "dropped": a disabled tracer is
  // a null sink, not a full one.
  Tracer off;
  off.emit(1, "c", "e");
  EXPECT_EQ(off.dropped(), 0u);
}

}  // namespace
}  // namespace gnnerator::sim
