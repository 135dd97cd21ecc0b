#include "serve/scheduler.hpp"

#include <algorithm>
#include <cctype>
#include <deque>
#include <map>
#include <utility>

#include "core/plan_cache.hpp"
#include "util/check.hpp"

namespace gnnerator::serve {

std::string_view policy_name(SchedulingPolicy policy) {
  switch (policy) {
    case SchedulingPolicy::kFifo:
      return "fifo";
    case SchedulingPolicy::kSjf:
      return "sjf";
    case SchedulingPolicy::kDynamicBatch:
      return "batch";
    case SchedulingPolicy::kAffinity:
      return "affinity";
  }
  return "?";
}

std::optional<SchedulingPolicy> parse_policy(std::string_view name) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower == "fifo") {
    return SchedulingPolicy::kFifo;
  }
  if (lower == "sjf") {
    return SchedulingPolicy::kSjf;
  }
  if (lower == "batch" || lower == "dynamic-batch") {
    return SchedulingPolicy::kDynamicBatch;
  }
  if (lower == "affinity" || lower == "heft") {
    return SchedulingPolicy::kAffinity;
  }
  return std::nullopt;
}

bool Scheduler::has_ready(Cycle now) const { return next_ready(now) <= now; }

std::vector<const QueuedRequest*> Scheduler::ready(Cycle /*now*/) const { return {}; }

std::optional<QueuedRequest> Scheduler::try_take(std::uint64_t /*id*/) { return std::nullopt; }

void Scheduler::charge(std::size_t /*tier*/, std::uint64_t /*cost*/) {}

namespace {

class FifoScheduler final : public Scheduler {
 public:
  void enqueue(QueuedRequest queued, Cycle /*now*/) override {
    queue_.push_back(std::move(queued));
  }

  std::optional<DispatchBatch> pop(Cycle /*now*/) override {
    if (queue_.empty()) {
      return std::nullopt;
    }
    DispatchBatch batch;
    batch.requests.push_back(std::move(queue_.front()));
    queue_.pop_front();
    return batch;
  }

  [[nodiscard]] Cycle next_ready(Cycle now) const override {
    return queue_.empty() ? kNoDeadline : now;
  }

  [[nodiscard]] std::size_t depth() const override { return queue_.size(); }

 private:
  std::deque<QueuedRequest> queue_;
};

class SjfScheduler final : public Scheduler {
 public:
  void enqueue(QueuedRequest queued, Cycle /*now*/) override {
    queue_.push_back(std::move(queued));
  }

  std::optional<DispatchBatch> pop(Cycle /*now*/) override {
    if (queue_.empty()) {
      return std::nullopt;
    }
    const auto it = std::min_element(
        queue_.begin(), queue_.end(), [](const QueuedRequest& a, const QueuedRequest& b) {
          if (a.cost_estimate != b.cost_estimate) {
            return a.cost_estimate < b.cost_estimate;
          }
          return a.request.id < b.request.id;  // FIFO among equal-cost jobs
        });
    DispatchBatch batch;
    batch.requests.push_back(std::move(*it));
    queue_.erase(it);
    return batch;
  }

  [[nodiscard]] Cycle next_ready(Cycle now) const override {
    return queue_.empty() ? kNoDeadline : now;
  }

  [[nodiscard]] std::size_t depth() const override { return queue_.size(); }

 private:
  std::vector<QueuedRequest> queue_;
};

class DynamicBatchScheduler final : public Scheduler {
 public:
  explicit DynamicBatchScheduler(Limits limits) : limits_(limits) {
    GNNERATOR_CHECK_MSG(limits_.max_batch > 0, "dynamic batching needs max_batch >= 1");
  }

  void enqueue(QueuedRequest queued, Cycle now) override {
    auto [it, inserted] = groups_.try_emplace(queued.class_key);
    Group& group = it->second;
    if (inserted) {
      group.deadline = now + limits_.batch_window;
      group.opened_by = queued.request.id;
    }
    group.members.push_back(std::move(queued));
    ++depth_;
  }

  std::optional<DispatchBatch> pop(Cycle now) override {
    // The ripe group that has waited longest: smallest (deadline, opener).
    // std::map iteration is key-ordered, so the scan is deterministic.
    auto best = groups_.end();
    for (auto it = groups_.begin(); it != groups_.end(); ++it) {
      if (!ripe(it->second, now)) {
        continue;
      }
      if (best == groups_.end() ||
          std::pair(it->second.deadline, it->second.opened_by) <
              std::pair(best->second.deadline, best->second.opened_by)) {
        best = it;
      }
    }
    if (best == groups_.end()) {
      return std::nullopt;
    }
    DispatchBatch batch;
    Group& group = best->second;
    if (group.members.size() <= limits_.max_batch) {
      batch.requests = std::move(group.members);
      depth_ -= batch.requests.size();
      groups_.erase(best);
      return batch;
    }
    // Cap the dispatch at max_batch; the remainder stays as a (still ripe)
    // group headed by its new oldest member, so the next idle device picks
    // it up immediately.
    batch.requests.assign(std::make_move_iterator(group.members.begin()),
                          std::make_move_iterator(group.members.begin() +
                                                  static_cast<std::ptrdiff_t>(limits_.max_batch)));
    group.members.erase(group.members.begin(),
                        group.members.begin() + static_cast<std::ptrdiff_t>(limits_.max_batch));
    group.opened_by = group.members.front().request.id;
    depth_ -= batch.requests.size();
    return batch;
  }

  [[nodiscard]] Cycle next_ready(Cycle now) const override {
    Cycle earliest = kNoDeadline;
    for (const auto& [key, group] : groups_) {
      earliest = std::min(earliest, ripe(group, now) ? now : group.deadline);
    }
    return earliest;
  }

  [[nodiscard]] std::size_t depth() const override { return depth_; }

 private:
  struct Group {
    std::vector<QueuedRequest> members;
    Cycle deadline = 0;
    std::uint64_t opened_by = 0;  ///< id of the request that opened the group
  };

  [[nodiscard]] bool ripe(const Group& group, Cycle now) const {
    return group.deadline <= now || group.members.size() >= limits_.max_batch;
  }

  Limits limits_;
  /// Keyed by class; std::map so every scan order is deterministic.
  std::map<std::string, Group> groups_;
  std::size_t depth_ = 0;
};

/// The queue behind the affinity (HEFT) policy: arrival order, but the
/// server performs placement itself via ready()/try_take() — pop() is the
/// FIFO fallback so the policy still drains if a caller uses the generic
/// interface. next_ready() is kNoDeadline: affinity dispatch is driven
/// purely by completions and arrivals (a held request's preferred device
/// becoming free IS a completion event), so the queue never needs to wake
/// the event loop on its own.
class AffinityScheduler final : public Scheduler {
 public:
  void enqueue(QueuedRequest queued, Cycle /*now*/) override {
    queue_.push_back(std::move(queued));
  }

  std::optional<DispatchBatch> pop(Cycle /*now*/) override {
    if (queue_.empty()) {
      return std::nullopt;
    }
    DispatchBatch batch;
    batch.requests.push_back(std::move(queue_.front()));
    queue_.pop_front();
    return batch;
  }

  [[nodiscard]] Cycle next_ready(Cycle /*now*/) const override { return kNoDeadline; }

  [[nodiscard]] std::size_t depth() const override { return queue_.size(); }

  [[nodiscard]] bool has_ready(Cycle /*now*/) const override { return !queue_.empty(); }

  [[nodiscard]] std::vector<const QueuedRequest*> ready(Cycle /*now*/) const override {
    std::vector<const QueuedRequest*> view;
    view.reserve(queue_.size());
    for (const QueuedRequest& queued : queue_) {
      view.push_back(&queued);
    }
    return view;
  }

  std::optional<QueuedRequest> try_take(std::uint64_t id) override {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->request.id == id) {
        QueuedRequest taken = std::move(*it);
        queue_.erase(it);
        return taken;
      }
    }
    return std::nullopt;
  }

 private:
  std::deque<QueuedRequest> queue_;
};

/// Priority + weighted-fair front end over per-tier instances of the
/// configured policy. Strict priority between levels; within a level,
/// deterministic weighted-fair queuing: each tier accrues virtual time at
/// (dispatched cost estimate / weight), the eligible tier with the smallest
/// virtual time goes next, ties to the lower tier index. A tier waking from
/// idle is clamped to the smallest active virtual time so it competes for
/// its share from now on instead of replaying its idle past.
class TieredScheduler final : public Scheduler {
 public:
  TieredScheduler(std::vector<RequestClass> classes,
                  std::vector<std::unique_ptr<Scheduler>> inners)
      : classes_(std::move(classes)), inners_(std::move(inners)) {
    GNNERATOR_CHECK(classes_.size() == inners_.size() && !classes_.empty());
    virtual_time_.resize(classes_.size(), 0.0);
    for (const RequestClass& klass : classes_) {
      GNNERATOR_CHECK_MSG(klass.weight > 0.0,
                          "request class '" << klass.name << "' needs a positive weight");
    }
  }

  void enqueue(QueuedRequest queued, Cycle now) override {
    const std::size_t tier = queued.tier;
    GNNERATOR_CHECK_MSG(tier < inners_.size(), "queued request routed to unknown tier");
    if (inners_[tier]->depth() == 0) {
      // Virtual times only compete within a strict-priority level, so the
      // floor must come from active *equal-priority* peers — a lower
      // level's small virtual time would let this tier replay its idle
      // past against the peers it actually contends with.
      double floor = 0.0;
      bool any_active = false;
      for (std::size_t t = 0; t < inners_.size(); ++t) {
        if (t != tier && classes_[t].priority == classes_[tier].priority &&
            inners_[t]->depth() > 0) {
          floor = any_active ? std::min(floor, virtual_time_[t]) : virtual_time_[t];
          any_active = true;
        }
      }
      if (any_active) {
        virtual_time_[tier] = std::max(virtual_time_[tier], floor);
      }
    }
    inners_[tier]->enqueue(std::move(queued), now);
  }

  std::optional<DispatchBatch> pop(Cycle now) override {
    // No virtual-time charge here: the server charges at dispatch commit
    // (Scheduler::charge) with the cost of the device class that actually
    // executes — a pop-time charge could only use the canonical-class
    // estimate, which misprices tiers on heterogeneous fleets.
    for (const std::size_t tier : eligible_order(now)) {
      std::optional<DispatchBatch> batch = inners_[tier]->pop(now);
      if (batch.has_value()) {
        return batch;
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] Cycle next_ready(Cycle now) const override {
    Cycle earliest = kNoDeadline;
    for (const std::unique_ptr<Scheduler>& inner : inners_) {
      earliest = std::min(earliest, inner->next_ready(now));
    }
    return earliest;
  }

  [[nodiscard]] std::size_t depth() const override {
    std::size_t total = 0;
    for (const std::unique_ptr<Scheduler>& inner : inners_) {
      total += inner->depth();
    }
    return total;
  }

  [[nodiscard]] std::vector<const QueuedRequest*> ready(Cycle now) const override {
    std::vector<const QueuedRequest*> view;
    for (const std::size_t tier : eligible_order(now)) {
      for (const QueuedRequest* queued : inners_[tier]->ready(now)) {
        view.push_back(queued);
      }
    }
    return view;
  }

  std::optional<QueuedRequest> try_take(std::uint64_t id) override {
    // Like pop(): the virtual-time charge lands at dispatch commit via
    // charge(), priced for the device the server actually placed on.
    for (std::size_t tier = 0; tier < inners_.size(); ++tier) {
      std::optional<QueuedRequest> taken = inners_[tier]->try_take(id);
      if (taken.has_value()) {
        return taken;
      }
    }
    return std::nullopt;
  }

  void charge(std::size_t tier, std::uint64_t cost) override {
    GNNERATOR_CHECK_MSG(tier < classes_.size(), "WFQ charge against unknown tier");
    virtual_time_[tier] +=
        static_cast<double>(std::max<std::uint64_t>(cost, 1)) / classes_[tier].weight;
  }

 private:
  /// Tiers with work eligible at `now`, ordered (priority desc, virtual
  /// time asc, index asc). The order is total and deterministic.
  [[nodiscard]] std::vector<std::size_t> eligible_order(Cycle now) const {
    std::vector<std::size_t> order;
    for (std::size_t tier = 0; tier < inners_.size(); ++tier) {
      if (inners_[tier]->has_ready(now)) {
        order.push_back(tier);
      }
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (classes_[a].priority != classes_[b].priority) {
        return classes_[a].priority > classes_[b].priority;
      }
      if (virtual_time_[a] != virtual_time_[b]) {
        return virtual_time_[a] < virtual_time_[b];
      }
      return a < b;
    });
    return order;
  }

  std::vector<RequestClass> classes_;
  std::vector<std::unique_ptr<Scheduler>> inners_;
  std::vector<double> virtual_time_;
};

std::unique_ptr<Scheduler> make_bare_scheduler(SchedulingPolicy policy,
                                               Scheduler::Limits limits) {
  switch (policy) {
    case SchedulingPolicy::kFifo:
      return std::make_unique<FifoScheduler>();
    case SchedulingPolicy::kSjf:
      return std::make_unique<SjfScheduler>();
    case SchedulingPolicy::kDynamicBatch:
      return std::make_unique<DynamicBatchScheduler>(limits);
    case SchedulingPolicy::kAffinity:
      return std::make_unique<AffinityScheduler>();
  }
  GNNERATOR_CHECK_MSG(false, "unknown scheduling policy");
  return nullptr;
}

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(SchedulingPolicy policy, Scheduler::Limits limits,
                                          std::vector<RequestClass> classes) {
  if (classes.size() <= 1) {
    return make_bare_scheduler(policy, limits);
  }
  std::vector<std::unique_ptr<Scheduler>> inners;
  inners.reserve(classes.size());
  for (std::size_t tier = 0; tier < classes.size(); ++tier) {
    inners.push_back(make_bare_scheduler(policy, limits));
  }
  return std::make_unique<TieredScheduler>(std::move(classes), std::move(inners));
}

std::string request_class_key(std::string_view dataset_key,
                              const core::SimulationRequest& sim) {
  core::KeyBuilder key(dataset_key, sim.model, sim.config);
  // Raw dataflow spellings are compared, not resolved signatures: this is a
  // conservative compatibility test (equivalent spellings simply land in
  // separate batches; the shared plan cache still unifies their plans).
  const core::DataflowOptions& d = sim.dataflow;
  key << '|' << d.feature_blocking << ',' << d.block_size << ','
      << (d.traversal ? static_cast<int>(*d.traversal) : -1) << ',' << d.sparsity_elimination
      << ',' << d.autotune;
  key << '|' << static_cast<int>(sim.mode);
  if (sim.mode == core::SimMode::kFunctional) {
    key << ",w" << sim.weight_seed;  // functional results depend on the seed
  }
  return key.str();
}

}  // namespace gnnerator::serve
