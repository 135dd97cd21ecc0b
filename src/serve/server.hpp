#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/cost_oracle.hpp"
#include "core/engine.hpp"
#include "obs/recorder.hpp"
#include "serve/autoscale.hpp"
#include "serve/faults.hpp"
#include "serve/feature_cache.hpp"
#include "serve/fleet.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"
#include "serve/scheduler.hpp"
#include "serve/workload.hpp"
#include "util/stats.hpp"

namespace gnnerator::serve {

struct ServerOptions {
  /// Size of the simulated device fleet when `fleet` is empty (legacy
  /// homogeneous mode: every worker executes requests under the request's
  /// own config).
  std::size_t num_devices = 2;
  /// Heterogeneous fleet spec: each entry contributes `count` workers of
  /// its device class (serve/fleet.hpp; parse_fleet_spec for the
  /// "2xbaseline,1xnextgen" grammar). When non-empty it replaces
  /// num_devices, every worker compiles/executes under its class config
  /// (the request's config field is ignored), and per-class clocks convert
  /// device cycles onto the server timeline. The first entry is the
  /// *canonical* class: plan-compatibility keys and the admission-time
  /// (SJF) cost are evaluated under it.
  std::vector<DeviceClass> fleet;
  /// Request classes (SLO tiers). Empty = one "default" class. Requests
  /// name their class via Request::klass (empty = the first class);
  /// dispatch across classes is strict-priority then weighted-fair
  /// (serve/fleet.hpp).
  std::vector<RequestClass> classes;
  SchedulingPolicy policy = SchedulingPolicy::kFifo;
  /// Dynamic-batching window and size cap (kDynamicBatch only).
  Scheduler::Limits limits;
  /// Admission bound on queued (not yet dispatched) requests; an arrival
  /// finding the queue full is shed on the spot. 0 = unbounded.
  std::size_t queue_capacity = 0;
  /// SLO applied to requests that carry none (directly or via their
  /// request class); <= 0 = none. A request whose earliest possible
  /// completion already misses its SLO is shed at dispatch instead of
  /// wasting device time.
  double default_slo_ms = 0.0;
  /// Server clock: the virtual timeline's cycle rate. Maps simulated
  /// cycles to reported milliseconds and SLO deadlines to cycles; device
  /// cycles of a class with a different clock are rescaled onto this
  /// timeline at dispatch.
  double clock_ghz = 1.0;
  /// Per-request dispatch/response overhead a device pays for every
  /// request in a batch (RPC + host round trip), in server cycles.
  Cycle per_request_overhead = 10'000;
  /// Capacity of the fleet-wide shared plan cache.
  std::size_t plan_cache_capacity = 64;
  /// Retain each request's ExecutionResult in its Outcome (tests /
  /// functional clients). Off by default: a long load run would hold every
  /// output tensor alive.
  bool collect_results = false;
  /// Deterministic schedule of device crash/recover/slow/reclass events
  /// applied on the server clock during every serve run (serve/faults.hpp).
  /// Fault events are ordinary DES events: both serving loops process them
  /// at identical points, so any plan keeps serve() == run_reference()
  /// bitwise.
  FaultPlan faults;
  /// Elastic fleet sizing (serve/autoscale.hpp); disabled when unset.
  std::optional<AutoscalerOptions> autoscale;
  /// How many fault-induced aborts a request survives before it is failed.
  std::uint32_t retry_budget = 3;
  /// Base requeue delay after an abort, in server cycles; doubles per
  /// retry (exponential backoff). A backoff past the request's SLO
  /// deadline fails it immediately.
  Cycle retry_backoff = 100'000;
  /// Pre-sampling feature cache for sampled requests (Request::seed >= 0):
  /// one host-side cache per base dataset, built lazily at the first
  /// sampled dispatch against that dataset (a deterministic sequential
  /// point) under the triggering request's fanout. When unset, sampled
  /// dispatches pay no modeled feature-gather cost; when set, every
  /// feature-row gather of a sampled batch is priced hit-or-miss against
  /// the cache. Cache state persists across serve runs (like the plan
  /// cache); differential comparisons need fresh servers.
  std::optional<FeatureCacheOptions> feature_cache;
  /// Observability sink (src/obs/): when set, both serving loops record
  /// request spans, device timelines and control marks into it at their
  /// sequential event points, publish end-of-run metrics into its Registry,
  /// and feed measured (plan class, device class) execution windows into its
  /// ExecWindowLog — a report and metrics surface only; serving cost never
  /// reads it. Null = zero cost (every hook is behind one pointer check).
  /// The recorder's per-run streams reset at each serve call; its registry
  /// and exec-window history persist like the plan cache does. One recorder
  /// should serve one Server.
  std::shared_ptr<obs::Recorder> recorder;
};

/// A simulated multi-device GNNerator serving deployment.
///
/// The Server owns a fleet of device workers — each a core::Engine sharing
/// one fleet-wide PlanCache, so a model deployed across N devices compiles
/// once — an admission-controlled request queue, and a pluggable scheduling
/// policy (FIFO / SJF / dynamic batching / affinity, serve/scheduler.hpp).
/// The fleet may be heterogeneous (ServerOptions::fleet): workers of
/// different device classes execute the same request under different
/// accelerator configs, and the affinity policy places each request on the
/// device with the earliest estimated finish time.
///
/// serve() runs a deterministic discrete-event simulation in virtual device
/// time: the workload source emits timed arrivals, the policy picks what an
/// idle device runs next, and a dispatched batch occupies its device for
/// the accelerator's own simulated cycle count (one execution per distinct
/// plan-compatibility class in the batch — coalesced requests share it —
/// plus a per-request dispatch overhead). Event order is total: ties break
/// by (completions before arrivals before dispatch), device index, then
/// admission id, so two runs over the same (workload, seed, options) are
/// bit-identical — policies can be compared on p99s without noise.
///
/// The per-(plan class, device config) execution result is memoized
/// (identical requests provably compute identical results on the same
/// device config), so driving tens of thousands of requests through the
/// fleet costs one accelerator simulation per distinct pair.
class Server {
 public:
  explicit Server(ServerOptions options = {});

  /// Registers a dataset with every device engine (shared, not copied) and
  /// with the server's admission controller. Same contract as
  /// Engine::add_dataset.
  const graph::Dataset& add_dataset(graph::Dataset dataset);

  /// Runs the serving simulation until the workload is drained and every
  /// device is idle. May be called repeatedly; the plan cache and result
  /// memo stay warm across calls (ids and virtual time restart at 0).
  ///
  /// This is the production event loop (src/serve/server_pipeline.cpp),
  /// single-threaded like the simulation it drives: arrivals stream in
  /// sorted chunks (bounded memory for a StreamingWorkloadSource), only
  /// closed-loop reissues wait in a heap, and records are stamped in place.
  /// Admission, dispatch, placement and every memo are shared with
  /// run_reference(), whose report it reproduces bitwise — the
  /// differential matrix in tests/serve_property_test.cpp enforces it,
  /// against committed golden fingerprints too. Note: comparing the two
  /// paths needs fresh Server instances (or identical prior history),
  /// since the plan cache and memos staying warm across calls is part of
  /// the report.
  ServeReport serve(WorkloadSource& workload);

  /// The naive bookkeeping serve() is differentially tested against: one
  /// priority queue holding every arrival, materialized up front, and
  /// in-flight records held as Outcome copies until completion. It runs the
  /// same event loop, admission, dispatch and memos as serve(), so it checks
  /// serve()'s intake and record stamping; the committed goldens check what
  /// the two share (the serving counterpart of
  /// sim::SimKernel::run_reference).
  ServeReport run_reference(WorkloadSource& workload);

  [[nodiscard]] core::PlanCacheStats cache_stats() const { return plan_cache_->stats(); }
  /// The plan-compatibility class a request would be admitted under
  /// (clients/tests correlate outcomes back to their mix entries). On a
  /// heterogeneous fleet the canonical (first) device class's config is
  /// substituted. The request's dataset must be registered.
  [[nodiscard]] std::string class_key(const core::SimulationRequest& sim) const;
  /// The analytic estimate memo (state persists across runs).
  [[nodiscard]] const core::CostOracle& cost_oracle() const { return cost_oracle_; }
  [[nodiscard]] std::size_t num_devices() const { return devices_.size(); }
  [[nodiscard]] const ServerOptions& options() const { return options_; }
  /// How many times the cost oracle actually ran the analytic compiler
  /// pipeline (one per distinct execution identity — a plan class under one
  /// device config; the memoization regression asserts this stays flat in
  /// trace length).
  [[nodiscard]] std::size_t cost_oracle_runs() const { return cost_oracle_.pipeline_runs(); }

 private:
  /// Runtime availability of one fleet device. The fault plan and the
  /// autoscaler move it within a run; every device is active again when
  /// the run ends.
  enum class DeviceHealth {
    kActive,   ///< in service: dispatchable, accrues device-hours
    kRemoved,  ///< scaled out of the fleet by the autoscaler
    kCrashed,  ///< dead from a fault; back with a recover event
  };

  struct RegisteredDataset {
    std::shared_ptr<const graph::Dataset> dataset;
    std::string fingerprint;
  };

  struct Device {
    std::unique_ptr<core::Engine> engine;
    /// Index into classes (expanded fleet); kNoClass on a legacy fleet.
    std::size_t klass = 0;
    Cycle busy_until = 0;
    /// run_reference's in-flight records: Outcome copies stamped at
    /// dispatch and written back at completion (always empty in serve()).
    std::vector<Outcome> inflight;
    /// The queued requests of the batch in flight (empty when idle), kept by
    /// both loops: busy checks read it, completions walk it, and a crash
    /// requeues exactly the aborted work with its annotations (moved from
    /// the dispatch batch — no copies on the happy path).
    std::vector<QueuedRequest> inflight_reqs;
    DeviceStats stats;
    // ---- Elastic state. ----------------------------------------------------
    DeviceHealth health = DeviceHealth::kActive;
    /// Class restored at end of run (reclass faults are per-run).
    std::size_t baseline_klass = 0;
    /// Gray-failure service-speed multiplier (slow faults): batch service
    /// cycles divide by it. Reset to 1.0 by recover events and at end of
    /// run. Deliberately invisible to affinity EFT estimates — the placer
    /// works from nominal speeds, as a real one would under gray failure.
    double slow_factor = 1.0;
    /// Appended by the autoscaler mid-run; erased at end of run.
    bool ephemeral = false;
    /// Start of the current health span (device-hours accounting).
    Cycle health_since = 0;
  };

  static constexpr std::size_t kNoClass = ~static_cast<std::size_t>(0);

  [[nodiscard]] const RegisteredDataset& registered(const std::string& name) const;

  // ---- The one key space: plan classes and execution identities. ----------

  /// The plan-class key under one exec slot's config — what executes when a
  /// request of that class runs on a device of that slot. Identically
  /// configured slots produce the same key and share one identity, hence
  /// one engine run and one cost.
  struct ExecIdentity {
    /// The identity key: names the oracle's analytic memo entry and the
    /// recorder's engine-window template.
    std::string key;
    /// The memoized engine execution (full-graph classes; null until the
    /// identity first dispatches, and always for sampled identities, which
    /// execute only inside fused compositions).
    std::shared_ptr<const core::ExecutionResult> result;
    /// Analytic device cycles (no clock conversion, no overhead); 0 until
    /// priced — the oracle clamps its estimates to >= 1.
    std::uint64_t analytic_cycles = 0;
  };

  /// One interned plan class (sampled requests intern their exact key).
  struct PlanClass {
    /// Execution identity per exec slot, resolved on first use. Slot 0's
    /// is the canonical identity, whose key is the class key itself and
    /// whose analytic cycles are the class's admission-time cost.
    std::vector<ExecIdentity*> identities;
  };

  /// The plan class's dense id, allocating one on first sight.
  std::uint32_t intern_class(const std::string& key);
  /// The execution identity of a queued request on exec slot `slot`.
  ExecIdentity& identity(const QueuedRequest& queued, std::size_t slot);
  /// The batch's distinct execution identities on `device`, in
  /// first-appearance order, each with the first request that has it
  /// (coalesced requests share one execution).
  std::vector<std::pair<ExecIdentity*, const QueuedRequest*>> distinct_identities(
      const DispatchBatch& batch, const Device& device);
  /// The identity's one cost, in device cycles: the simulated cycles of its
  /// memoized execution once it has executed, before that its analytic
  /// cycles, priced through the oracle's memo on first use. Admission,
  /// placement and the WFQ charge all price through it.
  std::uint64_t cost_cycles(ExecIdentity& identity, const QueuedRequest& queued,
                            std::size_t slot);
  /// Exec slot of a device: its device class index (one shared slot 0 on a
  /// legacy fleet, where every device runs the request's own config).
  [[nodiscard]] static std::size_t exec_slot(const Device& device) {
    return device.klass == kNoClass ? 0 : device.klass;
  }
  /// The request with exec slot `slot`'s config substituted (unchanged on a
  /// legacy fleet).
  [[nodiscard]] core::SimulationRequest sim_for_slot(const core::SimulationRequest& sim,
                                                     std::size_t slot) const;

  // ---- Sampled mini-batch serving (k-hop frontiers, mixed-batch fusion,
  // pre-sampling feature cache). The shared admit and dispatch paths call
  // these; composition memos stay string-keyed, since nearly every fused
  // batch is a new composition.

  /// sample_memo_ key of a sampled request: plan-compatibility class | seed
  /// | fanout. The class component matters: the memoized SampledQuery
  /// embeds model-dependent fuse/exact keys, so two requests may only share
  /// an entry when their (model, config, dataflow) class matches —
  /// otherwise whichever model sampled a seed vertex first would leak its
  /// keys into the other's requests.
  [[nodiscard]] std::string sampled_memo_key(const Request& request) const;
  /// Resolves a sampled request's frontier, subgraph dataset and
  /// compatibility keys. Pure: the sampling PRNG is seeded from
  /// (dataset fingerprint, seed vertex, canonical fanout), so identical
  /// requests always produce identical subgraphs — the basis for
  /// coalescing.
  [[nodiscard]] std::shared_ptr<const SampledQuery> make_sampled_query(
      const Request& request) const;
  /// Memoized make_sampled_query (the admit path).
  [[nodiscard]] std::shared_ptr<const SampledQuery> sampled_for(const Request& request);
  /// Distinct frontiers of a sampled batch in first-appearance order — the
  /// fused composition. Requests sharing a seed share one block.
  [[nodiscard]] static std::vector<const SampledQuery*> sampled_composition(
      const DispatchBatch& batch);
  /// Memo key of a sampled batch's fused execution on one device class.
  [[nodiscard]] std::string sampled_exec_key(const Device& device,
                                             const DispatchBatch& batch) const;
  /// Ensures the fused execution of the batch's composition is memoized:
  /// fuses the distinct frontiers block-diagonally, materializes the fused
  /// dataset, and runs it through `device`'s engine once (one compiled
  /// plan for the whole mixed batch).
  void ensure_sampled_results(Device& device, const DispatchBatch& batch);
  /// Device occupancy of a sampled batch on the server timeline: the fused
  /// execution's cycles plus the feature-gather cost (cache probe — pure,
  /// so the shed fixpoint may price repeatedly) plus per-request overhead.
  [[nodiscard]] Cycle sampled_batch_service(Device& device, const DispatchBatch& batch);
  /// Commits the batch's feature gather into the cache (stats + LRU
  /// mutations); call exactly once per dispatched batch, after the final
  /// service pricing, when the device is actually occupied.
  void commit_sampled_gather(const DispatchBatch& batch);
  /// Per-request result scatter (collect_results): the rows of the
  /// request's seed vertices, sliced out of the fused output at the
  /// request's block offset.
  [[nodiscard]] std::shared_ptr<const core::ExecutionResult> sampled_result_for(
      const QueuedRequest& queued, Device& device, const DispatchBatch& batch);
  /// The per-dataset feature cache (lazily built); null when
  /// ServerOptions::feature_cache is unset.
  [[nodiscard]] FeatureCache* feature_cache_for(const QueuedRequest& queued);
  /// Base-graph vertex ids a sampled batch gathers (composition order,
  /// each distinct frontier's vertices once).
  static void sampled_gather_rows(const DispatchBatch& batch,
                                  std::vector<graph::NodeId>& rows);

  /// Runs the batch's identities that have no memoized execution through
  /// `device`'s engine (one run_batch call, first-appearance order).
  void ensure_class_results(Device& device, const DispatchBatch& batch);
  /// Device occupancy of a batch on `device`, on the server timeline: one
  /// execution per distinct identity plus the per-request overhead.
  [[nodiscard]] Cycle batch_service_cycles(Device& device, const DispatchBatch& batch);
  /// Converts device cycles of `device`'s class onto the server timeline
  /// (identity on a legacy fleet and whenever the clocks match).
  [[nodiscard]] Cycle to_server_cycles(const Device& device, std::uint64_t device_cycles) const;

  ServerOptions options_;
  /// Raw view of options_.recorder (hot-path null check); set once in the
  /// constructor.
  obs::Recorder* obs_ = nullptr;
  /// Expanded fleet: one entry per DeviceClass (count folded out by
  /// devices_ referencing it). Empty on a legacy fleet.
  std::vector<DeviceClass> device_classes_;
  /// Request classes (at least one; synthesized "default" when unset).
  std::vector<RequestClass> request_classes_;
  std::shared_ptr<core::PlanCache> plan_cache_;
  std::vector<Device> devices_;
  std::map<std::string, RegisteredDataset, std::less<>> datasets_;
  /// Analytic estimates of identities that have not executed yet
  /// (core/cost_oracle.hpp).
  core::CostOracle cost_oracle_;
  /// Plan-class registry: key -> dense id, and id -> per-slot identities.
  std::unordered_map<std::string, std::uint32_t> class_ids_;
  std::vector<PlanClass> plan_classes_;
  /// Every execution identity (a deque: PlanClass cells and the index point
  /// into it), and its index by key. Like the plan cache, both persist
  /// across serve runs.
  std::deque<ExecIdentity> identities_;
  std::unordered_map<std::string_view, ExecIdentity*> identity_index_;
  /// (dataset | seed | fanout) -> resolved sampled query, so repeated seeds
  /// sample once and coalesce.
  std::unordered_map<std::string, std::shared_ptr<const SampledQuery>> sample_memo_;
  /// (device class | fuse key | composition fingerprint) -> fused execution
  /// of a sampled batch composition.
  std::unordered_map<std::string, std::shared_ptr<const core::ExecutionResult>>
      sampled_results_;
  /// Per-base-dataset pre-sampling feature caches (std::map: deterministic
  /// iteration when the report aggregates their stats).
  std::map<std::string, FeatureCache> feature_caches_;

  // ---- Cost consumers. -------------------------------------------------------
  // Identities execute and are priced only at the event points (admission,
  // dispatch) of the one event loop both serve() and run_reference() run, so
  // every cost — and every decision derived from it — stays bitwise
  // comparable across loops.

  /// WFQ virtual-time charge of a committed batch: per-request cost under
  /// the device class that actually executes (the queue-time canonical-class
  /// estimate would misprice tiers on heterogeneous fleets).
  [[nodiscard]] std::uint64_t wfq_charge_cost(const DispatchBatch& batch, const Device& device);
  /// Affinity EFT service estimate on the server timeline: the identity's
  /// cost_cycles on the device, plus per-request overhead.
  [[nodiscard]] Cycle placement_estimate(const QueuedRequest& queued, const Device& device);

  // ---- The event loop (shared by serve() and run_reference()). -------------

  /// Per-run elastic state: the fault-plan cursor, the aborted-work requeue
  /// heap, the autoscaler, and the scale counters.
  struct ElasticRun {
    bool enabled = false;
    std::size_t fault_cursor = 0;
    std::optional<Autoscaler> autoscaler;
    /// One aborted request waiting out its retry backoff.
    struct Requeue {
      Cycle at = 0;
      std::uint64_t seq = 0;  ///< abort order: total tie-break at equal cycles
      QueuedRequest request;
    };
    struct RequeueLater {
      bool operator()(const Requeue& a, const Requeue& b) const {
        return std::tie(a.at, a.seq) > std::tie(b.at, b.seq);
      }
    };
    std::priority_queue<Requeue, std::vector<Requeue>, RequeueLater> requeues;
    std::uint64_t requeue_seq = 0;
    std::uint64_t scale_ups = 0;
    std::uint64_t scale_downs = 0;
  };

  /// One serving run's state, plus the bookkeeping in which serve() and
  /// run_reference() differ: how arrivals wait until they are due, and
  /// where a request's dispatch and completion stamps are written.
  /// Everything else — admission, dispatch, placement, faults, the order of
  /// every scheduler, oracle, RNG and obs mutation — is Server code both
  /// run through run_loop.
  class EventLoop {
   public:
    explicit EventLoop(WorkloadSource& source) : workload(source) {}
    virtual ~EventLoop() = default;
    EventLoop(const EventLoop&) = delete;
    EventLoop& operator=(const EventLoop&) = delete;

    /// Cycle of the earliest pending arrival; kNoDeadline when none is left.
    virtual Cycle next_arrival() = 0;
    /// Removes the next arrival (due at `now`), stamped with its due cycle.
    virtual Request take_arrival() = 0;
    /// Holds a closed-loop reissue until cycle `at`.
    virtual void hold(Cycle at, Request request) = 0;
    /// The Outcome that record `id`'s dispatch onto `device` is stamped into.
    virtual Outcome& dispatch_record(Device& device, std::uint64_t id) = 0;
    /// Stamps completion of the device's i-th in-flight request at `now`
    /// and returns its record.
    virtual const Outcome& complete_record(Device& device, std::size_t i) = 0;

    /// Hands a terminal outcome to the workload; reissues are held until due.
    void feed_back(const Outcome& outcome) {
      for (Request& request : workload.on_outcome(outcome)) {
        const Cycle at = std::max(request.arrival, now);
        hold(at, std::move(request));
      }
    }

    WorkloadSource& workload;
    std::unique_ptr<Scheduler> scheduler;
    std::vector<Outcome> records;
    util::RunningStats depth_stats;
    std::size_t max_depth = 0;
    Cycle now = 0;
    std::uint64_t events = 0;
    ElasticRun er;
  };
  struct Pipeline;   ///< serve()'s bookkeeping (server_pipeline.cpp)
  struct Reference;  ///< run_reference()'s bookkeeping (server.cpp)

  /// Runs the event loop over `loop`'s arrivals until the workload drains
  /// and every device idles, then assembles the report.
  ServeReport run_loop(EventLoop& loop);
  /// The annotate-and-admit path: validation, SLO tier, sampling or class
  /// key, interning, pricing, the record and the queue-capacity shed.
  void admit(EventLoop& loop, Request request);
  /// SLO admission control + device occupation for one popped batch on one
  /// device. A request whose batch would complete past its deadline is shed
  /// *before* occupying the device; shedding shrinks the batch (and
  /// possibly its class set), which can rescue the rest — iterate to the
  /// fixpoint, then commit. Returns true when the device was occupied.
  bool dispatch_batch_to(EventLoop& loop, Device& device, DispatchBatch batch);
  /// Affinity-aware (HEFT) dispatch: scan dispatchable requests in policy
  /// order and place each on the device with the earliest estimated finish
  /// time. A request whose best device is busy is *held* — its preferred
  /// device finishing is a completion event, so the hold always resolves
  /// without extra wake-ups. Each placement changes busy states, so rescan
  /// until a full pass places nothing.
  void dispatch_affinity(EventLoop& loop);
  /// Terminal starvation: queued work, but no active device and nothing
  /// left (no recover event, no autoscaler) to ever revive capacity. Fails
  /// the stranded queue at the scheduler's own release point.
  void fail_stranded(EventLoop& loop);
  /// Ends a shed or failed record at `now` (dispatch = completion = now),
  /// closes its span and feeds it back to the workload.
  void end_unserved(EventLoop& loop, Outcome& record);

  // ---- Elastic serving machinery (faults, requeues, autoscaling). ----------
  // The event loop calls these at fixed points (completions ->
  // elastic_process -> arrivals -> dispatch). With faults and autoscale
  // unset every hook is a no-op.

  [[nodiscard]] ElasticRun make_elastic_run() const;
  /// Earliest pending elastic event: next fault, next requeue release, or
  /// the autoscaler's next tick. The loop only consults it while work is
  /// pending (a leftover fault schedule must not keep an otherwise-finished
  /// run alive).
  [[nodiscard]] Cycle elastic_next_event(const ElasticRun& er) const;
  /// Fires everything due at `now`: fault events (plan order), requeue
  /// releases (backoff-expiry order), then one autoscaler evaluation.
  void elastic_process(EventLoop& loop);
  /// Feeds a completed outcome's latency into the autoscaler window.
  void elastic_on_complete(ElasticRun& er, const Outcome& outcome) const;
  void apply_fault_event(EventLoop& loop, const FaultEvent& event);
  /// Crash path: refunds the unserved device time, strips the dispatch
  /// stamps from every in-flight record, and requeues each (backoff, retry
  /// budget) or fails it (budget/SLO exhausted -> Outcome::failed).
  void abort_inflight(EventLoop& loop, Device& device);
  /// Scale up: reactivate the lowest-index removed device, else append an
  /// ephemeral one of the scale class (canonical class 0 / legacy).
  bool scale_up(Cycle now);
  /// Scale down: deactivate the highest-index active idle device; false
  /// (no-op, cooldown still consumed) when every active device is busy.
  bool scale_down(Cycle now);
  void set_device_health(Device& device, DeviceHealth health, Cycle now);
  /// Closes the device's current health span into active/downtime cycles.
  void flush_device_accounting(Device& device, Cycle now);
  std::size_t append_device(std::size_t klass, bool ephemeral, Cycle now);
  /// Device-class index for a name, appending a count-0 registry entry when
  /// the fleet has not used it yet (its exec slot fills in on first use).
  std::size_t intern_device_class(std::string_view name);
  /// Applies the device's gray-failure slow factor to a service time.
  [[nodiscard]] Cycle scaled_service(const Device& device, Cycle cycles) const;

  // ---- Observability hooks (src/obs/). --------------------------------------
  // Every hook fires at a sequential event point of the event loop with the
  // DES cycle — that is the whole determinism argument for byte-identical
  // trace exports across serve() and run_reference(). Each is a no-op
  // behind one pointer check when no recorder is attached.

  /// Starts the recorder's per-run streams with the fleet snapshot.
  void obs_begin_run();
  /// "dev<i> [<class>]" — the device's trace-lane label.
  [[nodiscard]] std::string obs_device_label(std::size_t device) const;
  /// The device class name exec windows are keyed by ("legacy" when the
  /// fleet is classless).
  [[nodiscard]] const std::string& obs_device_class_name(const Device& device) const;
  /// kAdmit (+ kSample for sampled requests), at record creation.
  void obs_admit(const Outcome& record, std::size_t tier, const SampledQuery* sampled);
  /// Terminal shed/fail: closes the request span and drops a control mark.
  void obs_terminal(const Outcome& record, Cycle now);
  /// A batch committed to a device: per-request kDispatch events, the busy
  /// span, the recorder's exec windows per distinct class, and
  /// (engine_spans) engine sub-spans anchored at `now`.
  void obs_dispatch(Device& device, const DispatchBatch& batch, Cycle now);
  /// The device's batch finished: closes the busy span (before the
  /// per-record kComplete events).
  void obs_device_complete(const Device& device, Cycle now);
  void obs_complete(const Outcome& record, Cycle now);
  /// End-of-run publication: closes trailing health spans, stops the run,
  /// publishes the report's metrics into the Registry and snapshots the
  /// ExecWindowLog onto the report. Called from assemble_report.
  void obs_finish_run(ServeReport& report, Cycle now);
  /// When engine-span capture is on, runs one traced execution through
  /// `device`'s engine and memoizes its window template under `exec_key`;
  /// returns the result (results are identical to the untraced run).
  [[nodiscard]] core::ExecutionResult obs_traced_run(Device& device,
                                                     const core::SimulationRequest& sim,
                                                     const std::string& exec_key);
  /// Whether dispatch-time class executions should route through
  /// obs_traced_run instead of run_batch.
  [[nodiscard]] bool obs_wants_engine_spans() const {
    return obs_ != nullptr && obs_->options().engine_spans;
  }
  [[nodiscard]] std::uint32_t device_index(const Device& device) const {
    return static_cast<std::uint32_t>(&device - devices_.data());
  }

  /// Report assembly at the end of run_loop. Checks the serving invariants
  /// (causal record stamps, busy <= active per device), then resets the
  /// fleet: health/class/slow-factor restored to baselines, ephemeral
  /// autoscaler devices erased, so repeated serve calls see the configured
  /// fleet.
  ServeReport assemble_report(EventLoop& loop);
};

}  // namespace gnnerator::serve
