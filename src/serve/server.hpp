#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
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

/// Runtime availability of one fleet device.
enum class DeviceHealth {
  kActive,   ///< in service: dispatchable, accrues device-hours
  kRemoved,  ///< scaled out of the fleet (autoscaler / remove_device)
  kCrashed,  ///< dead from a fault; back with a recover event
};

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
  /// *canonical* class: plan-compatibility keys and the SJF/WFQ cost
  /// oracle are evaluated under it.
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
  /// ExecWindowLog. Null = zero cost (every hook is behind one pointer
  /// check). The recorder's per-run streams reset at each serve call; its
  /// registry and exec-window history persist like the plan cache does.
  /// One recorder should serve one Server.
  std::shared_ptr<obs::Recorder> recorder;
  /// The cost oracle's blend knobs (core/cost_oracle.hpp): EWMA alpha,
  /// prior confidence, the blend on/off switch, and the optional autotune
  /// tail calibration. Oracle state (analytic memo + measured windows)
  /// persists across serve runs like the plan cache.
  core::CostOracleOptions cost_oracle;
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
/// The per-(plan class, device class) execution result is memoized
/// (identical requests provably compute identical results on the same
/// device class), so driving tens of thousands of requests through the
/// fleet costs one accelerator simulation per distinct class pair — this
/// is what PR 2's time-skipping kernel and PR 1/3's plan cache bought.
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
  /// sorted chunks (bounded memory for a StreamingWorkloadSource), memo
  /// lookups index dense plan-class ids, and completion records are
  /// stamped in place. The report is bitwise identical to run_reference()
  /// — the differential matrix in tests/serve_property_test.cpp enforces
  /// it, against committed golden fingerprints too. Note: comparing
  /// the two paths needs fresh Server instances (or identical prior
  /// history), since the plan cache and memos staying warm across calls is
  /// part of the report.
  ServeReport serve(WorkloadSource& workload);

  /// The naive event loop serve() is differentially tested against: one
  /// priority queue of materialized arrivals, string-keyed memos, no
  /// chunking — small, obviously-correct code kept as the trusted baseline
  /// (the serving counterpart of sim::SimKernel::run_reference).
  ServeReport run_reference(WorkloadSource& workload);

  [[nodiscard]] core::PlanCacheStats cache_stats() const { return plan_cache_->stats(); }
  /// The plan-compatibility class a request would be admitted under
  /// (clients/tests correlate outcomes back to their mix entries). On a
  /// heterogeneous fleet the canonical (first) device class's config is
  /// substituted. The request's dataset must be registered.
  [[nodiscard]] std::string class_key(const core::SimulationRequest& sim) const;
  /// The analytic prior for a request (cycles) under the canonical device
  /// class — the cold-start value; never consults measurements.
  [[nodiscard]] std::uint64_t cost_estimate(const core::SimulationRequest& sim);
  /// cost_estimate blended with the measured execution history of
  /// (plan class, canonical device class) — what SJF actually queues on
  /// once observations exist.
  [[nodiscard]] std::uint64_t calibrated_cost_estimate(const core::SimulationRequest& sim);
  /// The analytic affinity oracle: estimated service cycles of a request on
  /// one device, on the server timeline, including per-request overhead.
  [[nodiscard]] std::uint64_t device_cost_estimate(const core::SimulationRequest& sim,
                                                   std::size_t device);
  /// device_cost_estimate with the measured-exact execution substituted
  /// when the oracle has observed this (plan class, device class) — what
  /// affinity placement actually uses.
  [[nodiscard]] std::uint64_t calibrated_device_cost_estimate(
      const core::SimulationRequest& sim, std::size_t device);
  /// The measurement-calibrated cost oracle (analytic memo + measured
  /// (plan class, device class) windows; state persists across runs).
  [[nodiscard]] const core::CostOracle& cost_oracle() const { return cost_oracle_; }
  /// Mutable oracle access (tests inject observations; callers may seed a
  /// tail calibration fit between runs).
  [[nodiscard]] core::CostOracle& mutable_cost_oracle() { return cost_oracle_; }
  [[nodiscard]] std::size_t num_devices() const { return devices_.size(); }
  /// The device class of one worker; the empty legacy class (no config
  /// override) when ServerOptions::fleet was empty.
  [[nodiscard]] const DeviceClass* device_class(std::size_t device) const;
  [[nodiscard]] const ServerOptions& options() const { return options_; }
  [[nodiscard]] bool has_dataset(std::string_view name) const;
  /// How many times the cost oracle actually ran the analytic compiler
  /// pipeline (one per distinct (plan class, device class) pair; the
  /// memoization regression asserts this stays flat in trace length).
  [[nodiscard]] std::size_t cost_oracle_runs() const { return cost_oracle_.pipeline_runs(); }

  // ---- Runtime fleet mutation (FGNN-style role/capacity changes). ----------
  // Callable between serve runs; the next run's schedulers and affinity
  // placement observe the mutated fleet immediately. In-run mutation goes
  // through ServerOptions::faults and ::autoscale, which drive the same
  // machinery at deterministic event points.

  /// Appends a worker (sharing the fleet plan cache, with every registered
  /// dataset) and returns its index. On a classed fleet `klass` names the
  /// device class (registry or fleet-spec name); on a legacy fleet it must
  /// be empty.
  std::size_t add_device(std::string_view klass = {});
  /// Takes a device out of service (it keeps its index and engine; a later
  /// fault plan recover does NOT resurrect it). At least one active device
  /// must remain.
  void remove_device(std::size_t device);
  /// Switches a device to another device class (classed fleets only);
  /// subsequent batches compile/execute under the new class's config+clock.
  void reclass_device(std::size_t device, std::string_view klass);
  /// The current health of one worker.
  [[nodiscard]] DeviceHealth device_health(std::size_t device) const;

 private:
  struct RegisteredDataset {
    std::shared_ptr<const graph::Dataset> dataset;
    std::string fingerprint;
  };

  struct Device {
    std::unique_ptr<core::Engine> engine;
    /// Index into classes (expanded fleet); kNoClass on a legacy fleet.
    std::size_t klass = 0;
    Cycle busy_until = 0;
    /// Outcomes of the batch in flight (empty when idle); completion is
    /// stamped when the batch finishes. Used by run_reference only.
    std::vector<Outcome> inflight;
    /// The pipeline loop's in-flight representation: record ids only —
    /// dispatch fields are stamped into the record vector in place, so a
    /// completion never copies Outcome strings around.
    std::vector<std::uint64_t> inflight_ids;
    /// The queued requests of the batch in flight, kept by BOTH loops so a
    /// crash can requeue exactly the aborted work with its annotations
    /// (moved from the dispatch batch — no copies on the happy path).
    std::vector<QueuedRequest> inflight_reqs;
    DeviceStats stats;
    // ---- Elastic state. ----------------------------------------------------
    DeviceHealth health = DeviceHealth::kActive;
    /// Health restored at end of run (public remove_device persists;
    /// in-run fault/autoscaler transitions do not).
    DeviceHealth baseline_health = DeviceHealth::kActive;
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
  /// estimates_by_id_ sentinel ("not yet priced on this device class").
  static constexpr std::uint64_t kNoEstimate = ~static_cast<std::uint64_t>(0);

  [[nodiscard]] const RegisteredDataset& registered(const std::string& name) const;

  // ---- Sampled mini-batch serving (k-hop frontiers, mixed-batch fusion,
  // pre-sampling feature cache). Both event loops call these at identical
  // points, which keeps sampled runs bitwise identical across loops.

  /// sample_memo_ key of a sampled request: plan-compatibility class | seed
  /// | fanout. The class component matters: the memoized SampledQuery
  /// embeds model-dependent fuse/exact keys, so two requests may only share
  /// an entry when their (model, config, dataflow) class matches —
  /// otherwise whichever model sampled a seed vertex first would leak its
  /// keys into the other's requests (and the two event loops could resolve
  /// the race differently).
  [[nodiscard]] std::string sampled_memo_key(const Request& request) const;
  /// Resolves a sampled request's frontier, subgraph dataset and
  /// compatibility keys. Pure: the sampling PRNG is seeded from
  /// (dataset fingerprint, seed vertex, canonical fanout), so identical
  /// requests always produce identical subgraphs — the basis for
  /// coalescing.
  [[nodiscard]] std::shared_ptr<const SampledQuery> make_sampled_query(
      const Request& request) const;
  /// Memoized make_sampled_query (both loops' admit path).
  [[nodiscard]] std::shared_ptr<const SampledQuery> sampled_for(const Request& request);
  /// Canonical (first device class) cost estimate of a sampled request,
  /// memoized under its exact key.
  [[nodiscard]] std::uint64_t sampled_cost_estimate(const Request& request,
                                                    const SampledQuery& sampled);
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

  /// The execution-memo key of one queued request on one device: the plan
  /// class with the device class's config substituted (equal to class_key
  /// on a legacy fleet). Memoized.
  [[nodiscard]] const std::string& exec_key(const QueuedRequest& queued,
                                            const Device& device);
  /// The memoized canonical execution of one (plan class, device class);
  /// runs the missing classes of `batch` through `device`'s engine (one
  /// run_batch call).
  void ensure_class_results(Device& device, const DispatchBatch& batch);
  /// Device occupancy of a batch on `device`, on the server timeline.
  [[nodiscard]] Cycle batch_service_cycles(Device& device, const DispatchBatch& batch);
  /// Converts device cycles of `device`'s class onto the server timeline
  /// (identity on a legacy fleet and whenever the clocks match).
  [[nodiscard]] Cycle to_server_cycles(const Device& device, std::uint64_t device_cycles) const;
  [[nodiscard]] core::SimulationRequest sim_for_device(const core::SimulationRequest& sim,
                                                       const Device& device) const;

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
  /// The one estimator every consumer asks: analytic prior memo + measured
  /// (plan class, device class) execution windows (core/cost_oracle.hpp).
  core::CostOracle cost_oracle_;
  /// class key -> canonical execution result (cycles + output), computed
  /// once per (plan class, device class) for the whole fleet.
  std::unordered_map<std::string, std::shared_ptr<const core::ExecutionResult>> class_results_;
  /// (device class index, plan class key) -> execution-memo key.
  std::unordered_map<std::string, std::string> exec_keys_;
  /// (device class index, plan class key) -> analytic *device* cycles (no
  /// clock conversion, no overhead). Raw so WFQ charges and affinity
  /// placement can blend against measured windows, which are recorded in
  /// device cycles; queued_cost_estimate converts onto the server timeline.
  std::unordered_map<std::string, std::uint64_t> device_estimates_;
  /// (dataset | seed | fanout) -> resolved sampled query, so repeated seeds
  /// sample once and coalesce (the sampled analogue of class_results_).
  std::unordered_map<std::string, std::shared_ptr<const SampledQuery>> sample_memo_;
  /// (device class | fuse key | composition fingerprint) -> fused execution
  /// of a sampled batch composition.
  std::unordered_map<std::string, std::shared_ptr<const core::ExecutionResult>>
      sampled_results_;
  /// Per-base-dataset pre-sampling feature caches (std::map: deterministic
  /// iteration when the report aggregates their stats).
  std::map<std::string, FeatureCache> feature_caches_;

  [[nodiscard]] std::uint64_t queued_cost_estimate(const QueuedRequest& queued,
                                                   std::size_t device_index);

  // ---- Cost-oracle plumbing (shared by both event loops). ------------------
  // All mutation happens at the event points (admission pricing, dispatch
  // commit) in the identical order in serve() and run_reference(), so
  // oracle state — and every decision derived from it — stays bitwise
  // comparable across loops.

  /// The admission-time queue cost: the canonical analytic estimate blended
  /// with the measured history of the canonical execution identity (the
  /// class key itself — see the definition for why).
  [[nodiscard]] std::uint64_t blended_cost(std::uint64_t analytic,
                                           const std::string& class_key) const;
  /// Feeds the batch's measured executions (one per distinct class) into
  /// the oracle. Called at dispatch commit, right after obs_dispatch;
  /// sampled batches are skipped (a fused composition's cycles are not a
  /// per-frontier measurement).
  void oracle_observe_dispatch(const Device& device, const DispatchBatch& batch);
  /// WFQ virtual-time charge of a committed batch: per-request blended cost
  /// under the device class that actually executes (bug fix: the queue-time
  /// canonical-class estimate misprices tiers on heterogeneous fleets).
  [[nodiscard]] std::uint64_t wfq_charge_cost(const DispatchBatch& batch, const Device& device);
  /// Raw analytic device cycles of one request on one device's class,
  /// memoized in device_estimates_.
  [[nodiscard]] std::uint64_t device_class_cycles(const QueuedRequest& queued,
                                                  std::size_t device_index);
  /// Affinity EFT: swaps the analytic estimate for the measured-exact
  /// service time once the oracle has observed the request's execution
  /// identity on this device's class. Non-const: interns the identity key.
  [[nodiscard]] Cycle placement_estimate(const QueuedRequest& queued, const Device& device,
                                         std::uint64_t analytic_estimate);

  // ---- Elastic serving machinery (faults, requeues, autoscaling). ----------
  // Both event loops drive one ElasticRun through the same Server hooks at
  // the same event points (completions -> elastic_process -> arrivals ->
  // dispatch), which is what keeps any fault plan bitwise identical between
  // serve() and run_reference(). With faults and autoscale unset every hook
  // is a no-op and the loops behave exactly as before.

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

  /// Closed-loop reissue sink of the running event loop (each loop passes
  /// its own; the elastic hooks feed failed outcomes through it exactly
  /// like the loops feed shed/completed ones).
  using FeedBack = std::function<void(const Outcome&)>;

  [[nodiscard]] ElasticRun make_elastic_run() const;
  /// Earliest pending elastic event: next fault, next requeue release, or
  /// the autoscaler's next tick. The loops only consult it while work is
  /// pending (a leftover fault schedule must not keep an otherwise-finished
  /// run alive).
  [[nodiscard]] Cycle elastic_next_event(const ElasticRun& er) const;
  /// Fires everything due at `now`: fault events (plan order), requeue
  /// releases (backoff-expiry order), then one autoscaler evaluation.
  void elastic_process(ElasticRun& er, Cycle now, Scheduler& scheduler,
                       std::vector<Outcome>& records, const FeedBack& feed_back);
  /// Feeds a completed outcome's latency into the autoscaler window.
  void elastic_on_complete(ElasticRun& er, const Outcome& outcome) const;
  void apply_fault_event(ElasticRun& er, const FaultEvent& event, Cycle now,
                         std::vector<Outcome>& records, const FeedBack& feed_back);
  /// Crash path: refunds the unserved device time, strips the dispatch
  /// stamps from every in-flight record, and requeues each (backoff, retry
  /// budget) or fails it (budget/SLO exhausted -> Outcome::failed).
  void abort_inflight(ElasticRun& er, Device& device, Cycle now,
                      std::vector<Outcome>& records, const FeedBack& feed_back);
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
  /// Device-class index for a name, appending a count-0 registry entry (and
  /// the matching exec-memo slots) when the fleet has not used it yet.
  std::size_t intern_device_class(std::string_view name);
  /// Applies the device's gray-failure slow factor to a service time.
  [[nodiscard]] Cycle scaled_service(const Device& device, Cycle cycles) const;

  // ---- Observability hooks (src/obs/). --------------------------------------
  // Every hook fires at a sequential event point with the DES cycle, and
  // both event loops call the same hook at the same point — that is the
  // whole determinism argument for byte-identical trace exports. Each is a
  // no-op behind one pointer check when no recorder is attached.

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
  /// span, measured exec windows per distinct class, and (engine_spans)
  /// engine sub-spans anchored at `now`.
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

  // ---- Serving-pipeline state (server_pipeline.cpp). -----------------------
  /// The optimized event loop behind serve(); nested so it can reach the
  /// memo tables without widening the public surface.
  struct Pipeline;

  /// One plan class in the dense registry.
  struct PlanClass {
    std::string key;  ///< canonical class key (class_key())
    std::uint64_t cost_estimate = 0;  ///< canonical cost-oracle value
  };

  /// Dense plan-class registry: key -> id and id -> key + canonical cost.
  /// The id-indexed side tables below turn the pipeline's hot memo lookups
  /// (execution results, affinity EFT estimates) into array indexing; the
  /// string-keyed maps above stay the source of truth shared with
  /// run_reference, so either loop warms the other.
  std::unordered_map<std::string, std::uint32_t> class_ids_;
  std::vector<PlanClass> plan_classes_;
  /// [exec slot][class id]; exec slot = device class index (a single
  /// shared slot on a legacy fleet). Entries are null / kNoDeadline until
  /// first touched.
  std::vector<std::vector<std::shared_ptr<const core::ExecutionResult>>> results_by_id_;
  std::vector<std::vector<std::uint64_t>> estimates_by_id_;

  /// Report assembly shared by both loops — one code path, so the two
  /// cannot drift in how metrics/devices/cache stats are folded in. Also
  /// the end-of-run fleet reset: health/class/slow-factor restored to
  /// baselines, ephemeral autoscaler devices erased, so repeated serve
  /// calls see the configured fleet.
  ServeReport assemble_report(std::vector<Outcome>&& records, Cycle now,
                              const util::RunningStats& depth_stats, std::size_t max_depth,
                              std::uint64_t events, const ElasticRun& er);
};

}  // namespace gnnerator::serve
