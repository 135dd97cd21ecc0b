#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/datasets.hpp"
#include "graph/sample.hpp"
#include "serve/fleet.hpp"
#include "serve/request.hpp"

namespace gnnerator::serve {

/// Pluggable queueing disciplines for the serving fleet.
///
///   * kFifo          — strict arrival order, one request per dispatch.
///   * kSjf           — shortest job first: the queued request with the
///                      smallest cost estimate (QueuedRequest::cost_estimate:
///                      the class's simulated cycles once it has executed,
///                      the analytic compiler estimate before) dispatches
///                      first; ties break to the lower id so the order is
///                      total and deterministic.
///   * kDynamicBatch  — requests of the same plan-compatibility class
///                      coalesce into one device batch; a class's batch
///                      dispatches when its window expires or it reaches
///                      max_batch, whichever is first.
///   * kAffinity      — HEFT-style affinity-aware placement: the server
///                      scans queued requests in arrival order and places
///                      each on the device with the earliest estimated
///                      finish time (cost model evaluated under each device
///                      class's config); a request whose best device is
///                      busy waits for it instead of occupying a slower
///                      idle one.
enum class SchedulingPolicy { kFifo, kSjf, kDynamicBatch, kAffinity };

[[nodiscard]] std::string_view policy_name(SchedulingPolicy policy);
/// Parses "fifo" / "sjf" / "batch" / "affinity" (case-insensitive);
/// nullopt otherwise.
[[nodiscard]] std::optional<SchedulingPolicy> parse_policy(std::string_view name);

/// The sampled side of a request (Request::seed >= 0), resolved once at
/// admission and shared by every structure that refers to the request
/// afterwards. Sampling is deterministic in (dataset, seed vertex, fanout),
/// so two requests for the same seed share one SampledQuery — and one
/// frontier block inside a fused batch.
struct SampledQuery {
  /// The k-hop frontier sample (remapped CSR + seed mask + id mapping).
  std::shared_ptr<const graph::SampledSubgraph> frontier;
  /// The frontier materialized as a dataset (features gathered per sampled
  /// vertex) — what the engine executes.
  std::shared_ptr<const graph::Dataset> dataset;
  /// Seed-independent batching-compatibility class: base dataset + fanout +
  /// model/config/dataflow. Distinct frontiers of the same fuse class
  /// concatenate into one block-diagonal fused plan (QueuedRequest::class_key
  /// carries this so dynamic batching groups on it).
  std::string fuse_key;
  /// Fully-resolved identity including the frontier fingerprint; keys the
  /// cost/result memos, where two different subgraphs must never collide.
  std::string exact_key;
};

/// A request staged in the scheduler, with the admission-time annotations
/// policies decide on.
struct QueuedRequest {
  Request request;
  std::string class_key;
  /// Non-null iff request.is_sampled(): the resolved frontier sample and
  /// its compatibility keys. Opaque to scheduler policies.
  std::shared_ptr<const SampledQuery> sampled;
  /// SJF's job size, priced at admission under the fleet's canonical device
  /// class: the simulated cycles of the class's execution once it has run
  /// there, the analytic estimate (core::CostOracle) until then. Sampled
  /// requests are always priced analytically.
  std::uint64_t cost_estimate = 0;
  /// Index of the request class (SLO tier) the admission controller
  /// resolved; routes the request inside a TieredScheduler.
  std::size_t tier = 0;
  /// Dense plan-class id the server interned at admission (the exact key
  /// for sampled requests). Lets per-(plan class, device class) memo
  /// lookups be array indexing instead of string hashing. Never consulted
  /// by scheduler policies.
  std::uint32_t class_id = 0;
};

/// What one device executes at once: 1 request (FIFO/SJF) or a coalesced
/// group of plan-compatible requests (dynamic batching).
struct DispatchBatch {
  std::vector<QueuedRequest> requests;
};

/// A scheduling policy's queue. Implementations are single-threaded (the
/// server's event loop owns them) and fully deterministic.
///
/// Contract with the serving event loops: `next_ready()` is the policy's
/// *declared synchronization point*: it names the earliest future cycle at
/// which the policy could produce work unprompted (a batching-window
/// expiry), and the event loop treats that cycle as a cross-device event it
/// must not simulate past. A policy whose next_ready() under-reports would
/// let the loop skip a scheduling point and diverge from the reference run;
/// the differential matrix in tests/serve_property_test.cpp pins this.
class Scheduler {
 public:
  struct Limits {
    /// Dynamic batching: max requests coalesced into one dispatch.
    std::size_t max_batch = 16;
    /// Dynamic batching: cycles a freshly opened class batch waits for
    /// companions before it becomes dispatchable.
    Cycle batch_window = 1'000'000;
  };

  virtual ~Scheduler() = default;

  virtual void enqueue(QueuedRequest queued, Cycle now) = 0;

  /// Removes and returns the next dispatchable batch at `now`, or nullopt
  /// when nothing is ready (empty queue, or every batch still inside its
  /// window).
  virtual std::optional<DispatchBatch> pop(Cycle now) = 0;

  /// Earliest cycle at which pop() could return work without any new
  /// arrival: `now` when work is ready, a batching-window expiry in the
  /// future, or kNoDeadline when the queue is empty. The server's event
  /// loop uses this as a wake-up event while devices sit idle.
  [[nodiscard]] virtual Cycle next_ready(Cycle now) const = 0;

  /// Requests currently queued (not yet dispatched).
  [[nodiscard]] virtual std::size_t depth() const = 0;

  /// Whether a pop()/ready() at `now` would yield work. Default:
  /// next_ready(now) <= now; schedulers whose queued work is always
  /// dispatchable but never self-wake (affinity) override with depth() > 0.
  [[nodiscard]] virtual bool has_ready(Cycle now) const;

  /// Affinity (HEFT) support: the dispatchable requests at `now` in policy
  /// order, without removing them — the server pairs each with its
  /// earliest-finish device and takes the ones it can place. Pointers are
  /// valid until the next mutating call. Default: empty (policy does not
  /// support server-side placement).
  [[nodiscard]] virtual std::vector<const QueuedRequest*> ready(Cycle now) const;

  /// Removes and returns the queued request with `id` (previously seen via
  /// ready()); nullopt when this scheduler does not hold it.
  virtual std::optional<QueuedRequest> try_take(std::uint64_t id);

  /// Charges `cost` service cycles against `tier`'s weighted-fair virtual
  /// time. The server calls this at dispatch commit with the cost of the
  /// device class that actually executes the batch — not the canonical-class
  /// estimate the batch was queued with, which over/under-charges tiers on
  /// heterogeneous fleets. No-op for bare (single-tier) schedulers.
  virtual void charge(std::size_t tier, std::uint64_t cost);
};

/// Creates the scheduler for a policy. When more than one request class
/// (SLO tier) is configured, the policy's queue is instantiated per tier
/// behind a deterministic priority + weighted-fair front end
/// (serve/fleet.hpp, RequestClass); with zero or one class the bare policy
/// queue is returned unchanged.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(SchedulingPolicy policy,
                                                        Scheduler::Limits limits,
                                                        std::vector<RequestClass> classes = {});

/// The plan-compatibility class of a request: two requests with the same
/// key run the same plan on the same graph with the same seed, so they
/// compute identical results and may be coalesced into one device batch.
/// `dataset_key` is the registered dataset's structural fingerprint.
[[nodiscard]] std::string request_class_key(std::string_view dataset_key,
                                            const core::SimulationRequest& sim);

}  // namespace gnnerator::serve
