/// The production bookkeeping behind Server::serve.
///
/// Arrivals come in sorted chunks: a StreamingWorkloadSource is pulled
/// incrementally, so trace memory stays bounded; a plain source is
/// materialized once and walked through a stable-sorted index. Only
/// closed-loop reissues wait in a heap. Records are stamped in place at
/// dispatch and completion, so no Outcome is ever copied through a device's
/// in-flight list.
///
/// That is all that sets serve() apart from Server::run_reference: both run
/// Server::run_loop, with one admission path, one dispatch commit, one
/// placement and one dense key space for the memos (server.cpp), so every
/// scheduler, oracle, RNG and obs mutation happens in one order.
/// tests/serve_property_test.cpp holds the two against each other and
/// against committed goldens.
#include "serve/server.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <tuple>
#include <utility>

namespace gnnerator::serve {

namespace {

/// Arrivals pulled per intake refill.
constexpr std::size_t kIntakeChunk = 4096;

}  // namespace

struct Server::Pipeline final : EventLoop {
  /// Non-null when the workload supports incremental sorted pulls.
  StreamingWorkloadSource* stream = nullptr;

  // ---- Intake: the workload's arrivals in sorted order, one chunk at a
  // time. ---------------------------------------------------------------
  std::vector<Request> materialized;  ///< plain sources: every arrival
  std::vector<std::uint32_t> order;   ///< .. stable-sorted by arrival cycle
  std::size_t order_pos = 0;
  std::vector<Request> buffer;        ///< current sorted chunk
  std::size_t buffer_pos = 0;
  bool drained = false;

  // ---- Feedback arrivals (closed-loop reissues). Only these need a heap:
  // the main stream is already sorted, and the reference's emission seqs
  // put every initial arrival ahead of every feedback push, so at equal
  // cycles the stream head wins. ----------------------------------------
  struct Feedback {
    Cycle at = 0;
    std::uint64_t seq = 0;  ///< push order: total tie-break at equal cycles
    Request request;
  };
  struct FeedbackLater {
    bool operator()(const Feedback& a, const Feedback& b) const {
      return std::tie(a.at, a.seq) > std::tie(b.at, b.seq);
    }
  };
  std::priority_queue<Feedback, std::vector<Feedback>, FeedbackLater> feedback;
  std::uint64_t feedback_seq = 0;

  explicit Pipeline(WorkloadSource& source)
      : EventLoop(source), stream(dynamic_cast<StreamingWorkloadSource*>(&source)) {
    if (stream == nullptr) {
      materialized = workload.initial_arrivals();
      order.resize(materialized.size());
      std::iota(order.begin(), order.end(), 0u);
      // Stable by arrival == the reference's (cycle, emission seq) order.
      std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
        return materialized[a].arrival < materialized[b].arrival;
      });
    }
  }

  /// Refills the intake buffer with the next sorted chunk; false once the
  /// workload's up-front arrivals are exhausted.
  bool refill() {
    buffer.clear();
    buffer_pos = 0;
    if (stream != nullptr) {
      return stream->pull(kIntakeChunk, buffer) > 0;
    }
    const std::size_t n = std::min(kIntakeChunk, order.size() - order_pos);
    for (std::size_t i = 0; i < n; ++i) {
      buffer.push_back(std::move(materialized[order[order_pos + i]]));
    }
    order_pos += n;
    return n > 0;
  }

  /// Arrival cycle of the next up-front arrival (kNoDeadline once drained).
  Cycle head() {
    while (buffer_pos == buffer.size()) {
      if (drained || !refill()) {
        drained = true;
        return kNoDeadline;
      }
    }
    return buffer[buffer_pos].arrival;
  }

  Cycle next_arrival() override {
    const Cycle next = head();
    return feedback.empty() ? next : std::min(next, feedback.top().at);
  }

  Request take_arrival() override {
    if (head() == now) {
      return std::move(buffer[buffer_pos++]);
    }
    // priority_queue::top is const; the element is discarded by pop.
    Request request = std::move(const_cast<Feedback&>(feedback.top()).request);
    request.arrival = feedback.top().at;
    feedback.pop();
    return request;
  }

  void hold(Cycle at, Request request) override {
    feedback.push(Feedback{at, feedback_seq++, std::move(request)});
  }

  Outcome& dispatch_record(Device& /*device*/, std::uint64_t id) override { return records[id]; }

  const Outcome& complete_record(Device& device, std::size_t i) override {
    Outcome& record = records[device.inflight_reqs[i].request.id];
    record.completion = now;
    return record;
  }
};

ServeReport Server::serve(WorkloadSource& workload) {
  Pipeline pipeline(workload);
  return run_loop(pipeline);
}

}  // namespace gnnerator::serve
