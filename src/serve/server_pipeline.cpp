/// The production event loop behind Server::serve.
///
/// Arrivals come in sorted chunks: a StreamingWorkloadSource is pulled
/// incrementally, so trace memory stays bounded; a plain source is
/// materialized once and walked through a stable-sorted index. Stream and
/// feedback arrivals share one annotate-and-admit path at the admission
/// point: validation, tier resolution, the plan-class key (sampling first
/// for sampled requests), dense class-id interning, and the analytic cost,
/// priced through core::CostOracle::analytic as the reference loop prices
/// it, once per class.
///
/// What sets this loop apart from Server::run_reference is bookkeeping,
/// never order: a feedback-only arrival heap, dense-id memo views instead of
/// string-keyed lookups, and completion records stamped in place. Scheduler
/// mutations, engine simulations, oracle updates and closed-loop RNG draws
/// happen in exactly the reference order, so the report is bitwise identical
/// to run_reference — tests/serve_property_test.cpp holds the two loops
/// against each other and against committed goldens.
#include "serve/server.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <queue>
#include <tuple>
#include <utility>

#include "util/check.hpp"

namespace gnnerator::serve {

namespace {

/// Arrivals pulled per intake refill.
constexpr std::size_t kIntakeChunk = 4096;

}  // namespace

struct Server::Pipeline {
  Server& server;
  WorkloadSource& workload;
  /// Non-null when the workload supports incremental sorted pulls.
  StreamingWorkloadSource* stream = nullptr;
  std::unique_ptr<Scheduler> scheduler;

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

  // ---- Event-loop state. ------------------------------------------------
  std::vector<Outcome> records;
  util::RunningStats depth_stats;
  std::size_t max_depth = 0;
  Cycle now = 0;
  std::uint64_t events = 0;
  ElasticRun er;
  /// feed_back as the type the shared elastic hooks take (constructed once;
  /// the std::function indirection stays off the non-elastic paths).
  FeedBack feed_back_fn;

  Pipeline(Server& s, WorkloadSource& w)
      : server(s), workload(w), stream(dynamic_cast<StreamingWorkloadSource*>(&w)) {
    er = server.make_elastic_run();
    feed_back_fn = [this](const Outcome& outcome) { feed_back(outcome); };
    scheduler =
        make_scheduler(server.options_.policy, server.options_.limits, server.request_classes_);
    if (stream == nullptr) {
      materialized = workload.initial_arrivals();
      order.resize(materialized.size());
      std::iota(order.begin(), order.end(), 0u);
      // Stable by arrival == the reference's (cycle, emission seq) order.
      std::stable_sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
        return materialized[a].arrival < materialized[b].arrival;
      });
    }
    // Size the id-indexed memo views to the fleet and the (possibly warm)
    // class registry.
    const std::size_t slots =
        server.device_classes_.empty() ? 1 : server.device_classes_.size();
    server.results_by_id_.resize(slots);
    server.estimates_by_id_.resize(slots);
    for (auto& slot : server.results_by_id_) {
      slot.resize(server.plan_classes_.size());
    }
    for (auto& slot : server.estimates_by_id_) {
      slot.resize(server.plan_classes_.size(), kNoEstimate);
    }
  }

  [[nodiscard]] std::size_t exec_slot(const Device& device) const {
    return device.klass == kNoClass ? 0 : device.klass;
  }

  /// Dense-id interning: grows the registry and every id-indexed memo view
  /// in lockstep.
  std::uint32_t intern(const std::string& key) {
    const auto [it, inserted] = server.class_ids_.try_emplace(
        key, static_cast<std::uint32_t>(server.plan_classes_.size()));
    if (inserted) {
      server.plan_classes_.push_back(PlanClass{key, 0});
      for (auto& slot : server.results_by_id_) {
        slot.emplace_back();
      }
      for (auto& slot : server.estimates_by_id_) {
        slot.push_back(kNoEstimate);
      }
    }
    return it->second;
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

  void feed_back(const Outcome& outcome) {
    for (Request& request : workload.on_outcome(outcome)) {
      const Cycle at = std::max(request.arrival, now);
      feedback.push(Feedback{at, feedback_seq++, std::move(request)});
    }
  }

  /// The one annotate-and-admit path for stream and feedback arrivals. It
  /// runs at the admission point, so the sample memo and cost oracle change
  /// exactly where the reference loop's admit changes them.
  void admit(Request request) {
    GNNERATOR_CHECK_MSG(!request.sim.dataset.empty(), "serve request needs a dataset id");
    GNNERATOR_CHECK_MSG(!request.sim.model.layers.empty(), "serve request needs a model");
    std::size_t tier = 0;
    if (!request.klass.empty()) {
      tier = server.request_classes_.size();
      for (std::size_t t = 0; t < server.request_classes_.size(); ++t) {
        if (server.request_classes_[t].name == request.klass) {
          tier = t;
          break;
        }
      }
      GNNERATOR_CHECK_MSG(tier < server.request_classes_.size(),
                          "request names unknown class '" << request.klass << "'");
    }

    QueuedRequest queued;
    queued.tier = tier;
    if (request.is_sampled()) {
      queued.sampled = server.sampled_for(request);
      queued.class_key = queued.sampled->fuse_key;
    } else {
      queued.class_key = server.class_key(request.sim);
    }
    // Sampled requests intern per exact (frontier) key — cost and result
    // memos distinguish subgraph shapes even inside one fuse class.
    queued.class_id =
        intern(queued.sampled != nullptr ? queued.sampled->exact_key : queued.class_key);
    // The oracle's analytic value is clamped to >= 1, so 0 doubles as "not
    // yet priced" in the registry.
    std::uint64_t& priced = server.plan_classes_[queued.class_id].cost_estimate;
    if (priced == 0) {
      priced = queued.sampled != nullptr ? server.sampled_cost_estimate(request, *queued.sampled)
                                         : server.cost_estimate(request.sim);
    }
    const std::uint64_t analytic = priced;

    const RequestClass& klass = server.request_classes_[tier];
    request.id = static_cast<std::uint64_t>(records.size());
    Outcome record;
    record.id = request.id;
    record.arrival = request.arrival;
    record.class_key = queued.class_key;  // the fuse class for sampled requests
    record.klass = klass.name;
    record.applied_slo_ms = request.slo_ms > 0.0   ? request.slo_ms
                            : klass.slo_ms > 0.0   ? klass.slo_ms
                                                   : server.options_.default_slo_ms;
    records.push_back(std::move(record));
    server.obs_admit(records.back(), tier, queued.sampled.get());

    if (server.options_.queue_capacity > 0 &&
        scheduler->depth() >= server.options_.queue_capacity) {
      Outcome& shed = records.back();
      shed.shed = true;
      shed.dispatch = now;
      shed.completion = now;
      server.obs_terminal(shed, now);
      feed_back(shed);
      return;
    }
    // Blend with the measured history at admission, as the reference loop
    // does. (Sampled requests stay analytic; see Server::run_reference.)
    queued.cost_estimate = queued.sampled != nullptr
                               ? analytic
                               : server.blended_cost(analytic, queued.class_key);
    queued.request = std::move(request);
    scheduler->enqueue(std::move(queued), now);
  }

  /// ensure_class_results with the string hashing replaced by dense-id
  /// indexing; falls through to (and warms) the string-keyed memo shared
  /// with the reference loop, so either loop reuses the other's engine
  /// runs. Engine batches run in the reference's exact order.
  void ensure_class_results_fast(Device& device, const DispatchBatch& batch) {
    auto& slot = server.results_by_id_[exec_slot(device)];
    std::vector<std::uint32_t> missing_cids;
    std::vector<const QueuedRequest*> missing_reps;
    for (const QueuedRequest& q : batch.requests) {
      if (slot[q.class_id] != nullptr) {
        continue;
      }
      const std::string& key = server.exec_key(q, device);
      if (const auto it = server.class_results_.find(key); it != server.class_results_.end()) {
        slot[q.class_id] = it->second;
        continue;
      }
      if (std::find(missing_cids.begin(), missing_cids.end(), q.class_id) ==
          missing_cids.end()) {
        missing_cids.push_back(q.class_id);
        missing_reps.push_back(&q);
      }
    }
    if (missing_cids.empty()) {
      return;
    }
    std::vector<core::SimulationRequest> sims;
    sims.reserve(missing_reps.size());
    for (const QueuedRequest* q : missing_reps) {
      sims.push_back(server.sim_for_device(q->request.sim, device));
    }
    std::vector<core::ExecutionResult> results;
    if (server.obs_wants_engine_spans()) {
      // Serial traced executions, memoizing window templates (identical
      // results — mirrors ensure_class_results in server.cpp).
      results.reserve(sims.size());
      for (std::size_t i = 0; i < sims.size(); ++i) {
        results.push_back(server.obs_traced_run(
            device, sims[i], server.exec_key(*missing_reps[i], device)));
      }
    } else {
      results = device.engine->run_batch(sims);
    }
    for (std::size_t i = 0; i < missing_cids.size(); ++i) {
      if (!server.options_.collect_results) {
        results[i].output.reset();
      }
      auto shared = std::make_shared<const core::ExecutionResult>(std::move(results[i]));
      server.class_results_.emplace(server.exec_key(*missing_reps[i], device), shared);
      slot[missing_cids[i]] = std::move(shared);
    }
  }

  [[nodiscard]] Cycle batch_service_cycles_fast(const Device& device,
                                                const DispatchBatch& batch) const {
    const auto& slot = server.results_by_id_[exec_slot(device)];
    std::uint64_t device_cycles = 0;
    std::vector<std::uint32_t> seen;
    seen.reserve(batch.requests.size());
    for (const QueuedRequest& q : batch.requests) {
      if (std::find(seen.begin(), seen.end(), q.class_id) != seen.end()) {
        continue;
      }
      seen.push_back(q.class_id);
      GNNERATOR_CHECK_MSG(slot[q.class_id] != nullptr, "class result missing at dispatch");
      device_cycles += slot[q.class_id]->cycles;
    }
    return server.scaled_service(
        device, server.to_server_cycles(device, device_cycles) +
                    server.options_.per_request_overhead *
                        static_cast<Cycle>(batch.requests.size()));
  }

  /// The affinity EFT estimate, as array indexing; falls through to (and
  /// warms) the string-keyed memo on first touch.
  [[nodiscard]] std::uint64_t estimate_fast(const QueuedRequest& q, std::size_t di) {
    std::uint64_t& e = server.estimates_by_id_[exec_slot(server.devices_[di])][q.class_id];
    if (e == kNoEstimate) {
      e = server.queued_cost_estimate(q, di);
    }
    return e;
  }

  /// Reference dispatch_batch_to, with records stamped in place: dispatch
  /// fields at dispatch, completion at completion — no Outcome ever copies
  /// through a device's in-flight list.
  bool dispatch_batch_to(Device& device, std::uint32_t di, DispatchBatch batch) {
    const bool sampled =
        !batch.requests.empty() && batch.requests.front().sampled != nullptr;
    while (!batch.requests.empty()) {
      if (sampled) {
        server.ensure_sampled_results(device, batch);
      } else {
        ensure_class_results_fast(device, batch);
      }
      const Cycle service = sampled ? server.sampled_batch_service(device, batch)
                                    : batch_service_cycles_fast(device, batch);
      const std::size_t before = batch.requests.size();
      std::erase_if(batch.requests, [&](const QueuedRequest& queued) {
        const double slo_ms = records[queued.request.id].applied_slo_ms;
        if (slo_ms <= 0.0) {
          return false;
        }
        const Cycle deadline =
            queued.request.arrival + ms_to_cycles(slo_ms, server.options_.clock_ghz);
        if (now + service <= deadline) {
          return false;
        }
        Outcome& record = records[queued.request.id];
        // A fault-retried request that runs out of SLO is a failure, not a
        // shed: the system took it on and lost it.
        if (record.retries > 0) {
          record.failed = true;
        } else {
          record.shed = true;
        }
        record.dispatch = now;
        record.completion = now;
        server.obs_terminal(record, now);
        feed_back(record);
        return true;
      });
      if (batch.requests.size() == before) {
        break;
      }
    }
    if (batch.requests.empty()) {
      return false;
    }

    const Cycle service = sampled ? server.sampled_batch_service(device, batch)
                                  : batch_service_cycles_fast(device, batch);
    if (sampled) {
      // Same sequential commit point as the reference loop (see server.cpp).
      server.commit_sampled_gather(batch);
    }
    server.obs_dispatch(device, batch, now);
    server.oracle_observe_dispatch(device, batch);
    if (server.request_classes_.size() > 1) {
      // WFQ accounting at dispatch commit — mirrors the reference loop:
      // charge the tier with the executing device class's cost.
      scheduler->charge(batch.requests.front().tier,
                        server.wfq_charge_cost(batch, device));
    }
    const auto& slot = server.results_by_id_[exec_slot(device)];
    for (const QueuedRequest& queued : batch.requests) {
      Outcome& record = records[queued.request.id];
      record.dispatch = now;
      record.device = di;
      record.batch_size = static_cast<std::uint32_t>(batch.requests.size());
      record.service_cycles = service;
      if (server.options_.collect_results) {
        record.result = sampled ? server.sampled_result_for(queued, device, batch)
                                : slot[queued.class_id];
      }
      device.inflight_ids.push_back(queued.request.id);
    }
    device.inflight_reqs = std::move(batch.requests);
    device.busy_until = now + service;
    device.stats.busy_cycles += service;
    device.stats.batches += 1;
    device.stats.requests += static_cast<std::uint64_t>(device.inflight_reqs.size());
    return true;
  }

  /// Reference dispatch_affinity with the EFT estimates as array indexing.
  void dispatch_affinity() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (const QueuedRequest* q : scheduler->ready(now)) {
        std::size_t best = server.devices_.size();
        Cycle best_eft = kNoDeadline;
        bool best_busy = true;
        for (std::size_t di = 0; di < server.devices_.size(); ++di) {
          const Device& device = server.devices_[di];
          if (device.health != DeviceHealth::kActive) {
            continue;  // crashed / scaled-out devices take no placements
          }
          const bool busy = !device.inflight_ids.empty();
          const Cycle start = busy ? device.busy_until : now;
          const Cycle eft = start + server.placement_estimate(*q, device, estimate_fast(*q, di));
          if (best == server.devices_.size() || eft < best_eft ||
              (eft == best_eft && !busy && best_busy)) {
            best = di;
            best_eft = eft;
            best_busy = busy;
          }
        }
        if (best_busy) {
          continue;  // held for a busy device
        }
        std::optional<QueuedRequest> taken = scheduler->try_take(q->request.id);
        GNNERATOR_CHECK_MSG(taken.has_value(), "affinity scheduler lost a ready request");
        DispatchBatch batch;
        batch.requests.push_back(std::move(*taken));
        (void)dispatch_batch_to(server.devices_[best], static_cast<std::uint32_t>(best),
                                std::move(batch));
        progress = true;
        break;  // the ready view is invalidated; rescan
      }
    }
  }

  ServeReport run() {
    while (true) {
      // ---- Next event: earliest of (batch completion, stream or feedback
      // arrival, scheduler window expiry while a device idles). -------------
      Cycle next = kNoDeadline;
      bool any_idle = false;
      for (const Device& device : server.devices_) {
        if (!device.inflight_ids.empty()) {
          next = std::min(next, device.busy_until);
        } else if (device.health == DeviceHealth::kActive) {
          any_idle = true;
        }
      }
      next = std::min(next, head());
      if (!feedback.empty()) {
        next = std::min(next, feedback.top().at);
      }
      if (any_idle) {
        next = std::min(next, scheduler->next_ready(now));
      }
      // Elastic events only while work is pending — same gating as the
      // reference loop (see server.cpp).
      const bool work_pending =
          next != kNoDeadline || scheduler->depth() > 0 || !er.requeues.empty();
      if (work_pending) {
        next = std::min(next, server.elastic_next_event(er));
      }
      if (next == kNoDeadline) {
        if (scheduler->depth() == 0) {
          break;
        }
        // Terminal starvation: no active device and nothing left to revive
        // capacity — fail the stranded queue (mirrors the reference loop).
        const Cycle ready_at = scheduler->next_ready(now);
        if (ready_at != kNoDeadline && ready_at > now) {
          now = ready_at;
        }
        ++events;
        const std::size_t before = scheduler->depth();
        while (std::optional<DispatchBatch> popped = scheduler->pop(now)) {
          for (QueuedRequest& q : popped->requests) {
            Outcome& record = records[q.request.id];
            record.failed = true;
            record.dispatch = now;
            record.completion = now;
            server.obs_terminal(record, now);
            feed_back(record);
          }
        }
        GNNERATOR_CHECK_MSG(scheduler->depth() < before,
                            "serve loop stalled with queued work");
        continue;
      }
      GNNERATOR_CHECK_MSG(next >= now, "serve event loop time went backwards");
      now = next;
      ++events;

      // ---- Completions (device-index order). ------------------------------
      for (Device& device : server.devices_) {
        if (device.inflight_ids.empty() || device.busy_until != now) {
          continue;
        }
        server.obs_device_complete(device, now);
        for (const std::uint64_t id : device.inflight_ids) {
          records[id].completion = now;
          server.obs_complete(records[id], now);
          server.elastic_on_complete(er, records[id]);
          feed_back(records[id]);
        }
        device.inflight_ids.clear();
        device.inflight_reqs.clear();
      }

      // ---- Elastic events due at `now` (before arrivals: a crashed or
      // scaled fleet is what admission and dispatch must see). --------------
      server.elastic_process(er, now, *scheduler, records, feed_back_fn);

      // ---- Arrivals at `now`: the sorted stream head beats feedback at
      // equal cycles (reference emission seqs order initial arrivals ahead
      // of every feedback push); feedback ties break by push order. ---------
      while (true) {
        if (head() == now) {
          admit(std::move(buffer[buffer_pos++]));
          continue;
        }
        if (!feedback.empty() && feedback.top().at == now) {
          // priority_queue::top is const; the element is discarded by pop.
          Request request = std::move(const_cast<Feedback&>(feedback.top()).request);
          request.arrival = feedback.top().at;
          feedback.pop();
          admit(std::move(request));
          continue;
        }
        break;
      }

      // ---- Dispatch (device-index order; affinity places jointly). --------
      if (server.options_.policy == SchedulingPolicy::kAffinity) {
        dispatch_affinity();
      } else {
        for (std::uint32_t di = 0; di < server.devices_.size(); ++di) {
          Device& device = server.devices_[di];
          if (device.health != DeviceHealth::kActive) {
            continue;
          }
          while (device.inflight_ids.empty()) {
            std::optional<DispatchBatch> popped = scheduler->pop(now);
            if (!popped) {
              break;
            }
            if (dispatch_batch_to(device, di, std::move(*popped))) {
              break;  // device occupied; move to the next device
            }
            // fully shed: try the next batch for this device
          }
        }
      }

      depth_stats.add(static_cast<double>(scheduler->depth()));
      max_depth = std::max(max_depth, scheduler->depth());
    }
    GNNERATOR_CHECK_MSG(scheduler->depth() == 0, "serve loop ended with queued work");

    return server.assemble_report(std::move(records), now, depth_stats, max_depth, events,
                                  er);
  }
};

ServeReport Server::serve(WorkloadSource& workload) {
  obs_begin_run();
  Pipeline pipeline(*this, workload);
  return pipeline.run();
}

}  // namespace gnnerator::serve
