#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <tuple>
#include <utility>

#include "sim/trace.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace gnnerator::serve {

namespace {

/// Same FNV-1a as core::graph_fingerprint (sampling-PRNG seeds and fused
/// composition fingerprints must be deterministic across platforms).
class Fnv1a {
 public:
  void mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix_string(const std::string& s) {
    for (const char c : s) {
      mix(static_cast<unsigned char>(c));
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(16);
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kDigits[(value >> shift) & 0xf]);
  }
  return out;
}

/// Event cap of the sim::Tracer used for engine-span capture (one traced
/// execution per distinct class; a truncated capture just loses tail
/// windows, never correctness).
constexpr std::size_t kEngineTraceCap = 1u << 20;

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      obs_(options_.recorder.get()),
      plan_cache_(std::make_shared<core::PlanCache>(options_.plan_cache_capacity)) {
  GNNERATOR_CHECK_MSG(options_.clock_ghz > 0.0, "server needs a positive device clock");

  request_classes_ = options_.classes;
  if (request_classes_.empty()) {
    request_classes_.push_back(RequestClass{});
  }
  for (std::size_t i = 0; i < request_classes_.size(); ++i) {
    const RequestClass& klass = request_classes_[i];
    GNNERATOR_CHECK_MSG(!klass.name.empty(), "request class " << i << " needs a name");
    GNNERATOR_CHECK_MSG(klass.weight > 0.0,
                        "request class '" << klass.name << "' needs a positive weight");
    GNNERATOR_CHECK_MSG(slo_fits(klass.slo_ms, options_.clock_ghz),
                        "request class '" << klass.name << "' has slo_ms " << klass.slo_ms
                                          << ", past the " << options_.clock_ghz
                                          << " GHz cycle clock's range");
    for (std::size_t j = 0; j < i; ++j) {
      GNNERATOR_CHECK_MSG(request_classes_[j].name != klass.name,
                          "duplicate request class '" << klass.name << "'");
    }
  }
  GNNERATOR_CHECK_MSG(slo_fits(options_.default_slo_ms, options_.clock_ghz),
                      "default_slo_ms " << options_.default_slo_ms << " is past the "
                                        << options_.clock_ghz << " GHz cycle clock's range");

  device_classes_ = options_.fleet;
  std::size_t total_devices = options_.num_devices;
  if (!device_classes_.empty()) {
    total_devices = 0;
    for (const DeviceClass& klass : device_classes_) {
      GNNERATOR_CHECK_MSG(!klass.name.empty(), "device class needs a name");
      GNNERATOR_CHECK_MSG(klass.count > 0,
                          "device class '" << klass.name << "' has count 0");
      GNNERATOR_CHECK_MSG(klass.effective_clock_ghz() > 0.0,
                          "device class '" << klass.name << "' needs a positive clock");
      klass.config.validate();
      total_devices += klass.count;
    }
  }
  GNNERATOR_CHECK_MSG(total_devices > 0, "server needs at least one device");

  devices_.reserve(total_devices);
  if (device_classes_.empty()) {
    for (std::size_t d = 0; d < total_devices; ++d) {
      append_device(kNoClass, /*ephemeral=*/false, /*now=*/0);
    }
  } else {
    for (std::size_t ci = 0; ci < device_classes_.size(); ++ci) {
      for (std::size_t d = 0; d < device_classes_[ci].count; ++d) {
        append_device(ci, /*ephemeral=*/false, /*now=*/0);
      }
    }
  }

  if (options_.autoscale.has_value()) {
    // Construct once to validate the options up front (each run builds its
    // own instance).
    (void)Autoscaler(*options_.autoscale, options_.clock_ghz);
  }
}

std::size_t Server::append_device(std::size_t klass, bool ephemeral, Cycle now) {
  core::EngineOptions engine_options;
  // Device workers are simulated serially inside the deterministic event
  // loop; threads would only perturb nothing and cost context switches.
  engine_options.num_threads = 1;
  engine_options.shared_plan_cache = plan_cache_;
  Device device;
  device.engine = std::make_unique<core::Engine>(engine_options);
  device.klass = klass;
  device.baseline_klass = klass;
  device.ephemeral = ephemeral;
  device.health_since = now;
  for (const auto& [name, entry] : datasets_) {
    device.engine->add_dataset(entry.dataset, entry.fingerprint);
  }
  devices_.push_back(std::move(device));
  if (obs_ != nullptr) {
    // Mid-run scale-ups extend the recorder's lane list; device_added
    // ignores the constructor-time appends (no run in progress).
    obs_->device_added(obs_device_label(devices_.size() - 1));
  }
  return devices_.size() - 1;
}

std::size_t Server::intern_device_class(std::string_view name) {
  GNNERATOR_CHECK_MSG(!device_classes_.empty(),
                      "device classes need a classed fleet (ServerOptions::fleet)");
  for (std::size_t ci = 0; ci < device_classes_.size(); ++ci) {
    if (device_classes_[ci].name == name) {
      return ci;
    }
  }
  std::optional<DeviceClass> klass = find_device_class(name);
  GNNERATOR_CHECK_MSG(klass.has_value(), "unknown device class '" << name << "'");
  klass->count = 0;  // registry entry only; no configured workers
  klass->config.validate();
  device_classes_.push_back(std::move(*klass));
  return device_classes_.size() - 1;
}

const graph::Dataset& Server::add_dataset(graph::Dataset dataset) {
  RegisteredDataset entry;
  entry.dataset = std::make_shared<const graph::Dataset>(std::move(dataset));
  entry.fingerprint = core::graph_fingerprint(entry.dataset->graph);
  for (Device& device : devices_) {
    device.engine->add_dataset(entry.dataset, entry.fingerprint);
  }
  const std::string name = entry.dataset->spec.name;
  auto [it, inserted] = datasets_.insert_or_assign(name, std::move(entry));
  return *it->second.dataset;
}

const Server::RegisteredDataset& Server::registered(const std::string& name) const {
  const auto it = datasets_.find(name);
  GNNERATOR_CHECK_MSG(it != datasets_.end(), "no dataset registered as '" << name << "'");
  return it->second;
}

core::SimulationRequest Server::sim_for_slot(const core::SimulationRequest& sim,
                                             std::size_t slot) const {
  core::SimulationRequest swapped = sim;
  if (!device_classes_.empty()) {
    swapped.config = device_classes_[slot].config;
  }
  return swapped;
}

std::string Server::class_key(const core::SimulationRequest& sim) const {
  const RegisteredDataset& dataset = registered(sim.dataset);
  if (device_classes_.empty()) {
    return request_class_key(dataset.fingerprint, sim);
  }
  // Heterogeneous fleet: the canonical (first) class's config stands in for
  // the request's, so two requests are plan-compatible iff they match in
  // every config-independent dimension — the partition is the same whatever
  // fixed config is substituted.
  core::SimulationRequest canonical = sim;
  canonical.config = device_classes_.front().config;
  return request_class_key(dataset.fingerprint, canonical);
}

Cycle Server::to_server_cycles(const Device& device, std::uint64_t device_cycles) const {
  if (device.klass == kNoClass) {
    return device_cycles;
  }
  const double ratio = options_.clock_ghz / device_classes_[device.klass].effective_clock_ghz();
  if (ratio == 1.0) {
    return device_cycles;
  }
  return static_cast<Cycle>(std::llround(static_cast<double>(device_cycles) * ratio));
}

std::uint32_t Server::intern_class(const std::string& key) {
  const auto [it, inserted] =
      class_ids_.try_emplace(key, static_cast<std::uint32_t>(plan_classes_.size()));
  if (inserted) {
    plan_classes_.emplace_back();
  }
  return it->second;
}

Server::ExecIdentity& Server::identity(const QueuedRequest& queued, std::size_t slot) {
  std::vector<ExecIdentity*>& identities = plan_classes_[queued.class_id].identities;
  if (identities.size() <= slot) {
    identities.resize(slot + 1, nullptr);
  }
  ExecIdentity*& cell = identities[slot];
  if (cell != nullptr) {
    return *cell;
  }
  // The plan-class key under the slot's config. Class keys carry the
  // canonical (slot 0) config, so slot 0's identity key is the class key
  // itself — the exact key for a sampled request, whose identity also
  // names its frontier. Keying identities by config rather than by device
  // class is what lets identically configured classes share one engine run
  // and one cost (the identical-class differential in
  // tests/serve_property_test.cpp holds bitwise).
  const core::SimulationRequest sim = sim_for_slot(queued.request.sim, slot);
  const RegisteredDataset& dataset = registered(sim.dataset);
  std::string key =
      queued.sampled == nullptr
          ? request_class_key(dataset.fingerprint, sim)
          : request_class_key(dataset.fingerprint + "~s" + queued.sampled->frontier->fingerprint,
                              sim);
  auto it = identity_index_.find(key);
  if (it == identity_index_.end()) {
    ExecIdentity& created = identities_.emplace_back();
    created.key = std::move(key);
    it = identity_index_.emplace(created.key, &created).first;
  }
  cell = it->second;
  return *cell;
}

std::vector<std::pair<Server::ExecIdentity*, const QueuedRequest*>> Server::distinct_identities(
    const DispatchBatch& batch, const Device& device) {
  std::vector<std::pair<ExecIdentity*, const QueuedRequest*>> distinct;
  for (const QueuedRequest& q : batch.requests) {
    ExecIdentity* id = &identity(q, exec_slot(device));
    const bool seen = std::any_of(distinct.begin(), distinct.end(),
                                  [&](const auto& entry) { return entry.first == id; });
    if (!seen) {
      distinct.emplace_back(id, &q);
    }
  }
  return distinct;
}

std::uint64_t Server::cost_cycles(ExecIdentity& identity, const QueuedRequest& queued,
                                  std::size_t slot) {
  if (identity.result != nullptr) {
    return identity.result->cycles;
  }
  if (identity.analytic_cycles == 0) {
    const core::SimulationRequest sim = sim_for_slot(queued.request.sim, slot);
    const graph::Dataset& dataset = queued.sampled != nullptr
                                        ? *queued.sampled->dataset
                                        : *registered(sim.dataset).dataset;
    identity.analytic_cycles = cost_oracle_.analytic(dataset, sim, identity.key);
  }
  return identity.analytic_cycles;
}

Cycle Server::placement_estimate(const QueuedRequest& queued, const Device& device) {
  const std::size_t slot = exec_slot(device);
  return to_server_cycles(device, cost_cycles(identity(queued, slot), queued, slot)) +
         options_.per_request_overhead;
}

std::uint64_t Server::wfq_charge_cost(const DispatchBatch& batch, const Device& device) {
  const std::size_t slot = exec_slot(device);
  std::uint64_t cost = 0;
  for (const QueuedRequest& q : batch.requests) {
    // Fused sampled work charges its queue-time estimate: the fused
    // composition has no per-request execution to price it by.
    const std::uint64_t per_request =
        q.sampled != nullptr ? q.cost_estimate : cost_cycles(identity(q, slot), q, slot);
    cost += std::max<std::uint64_t>(per_request, 1);
  }
  return cost;
}

// ---- Sampled mini-batch serving (see server.hpp). --------------------------

std::string Server::sampled_memo_key(const Request& request) const {
  std::string key = class_key(request.sim);
  key += '|';
  key += std::to_string(request.seed);
  key += '|';
  key += request.fanout;
  return key;
}

std::shared_ptr<const SampledQuery> Server::make_sampled_query(const Request& request) const {
  const RegisteredDataset& base = registered(request.sim.dataset);
  const graph::Graph& g = base.dataset->graph;
  GNNERATOR_CHECK_MSG(request.seed >= 0 &&
                          static_cast<std::uint64_t>(request.seed) < g.num_nodes(),
                      "sampled request seed " << request.seed << " out of range for V="
                                              << g.num_nodes());
  const graph::FanoutSpec fanout = graph::parse_fanout(request.fanout);

  // The sampling PRNG is a pure function of (dataset, seed vertex, canonical
  // fanout): two requests for the same seed draw the identical subgraph, so
  // they share one memo entry, one cost estimate, and one frontier block
  // inside a fused batch — the determinism contract sampled replays and
  // cross-loop differentials rest on.
  Fnv1a fnv;
  fnv.mix_string(base.fingerprint);
  fnv.mix(static_cast<std::uint64_t>(request.seed));
  for (const std::uint32_t f : fanout.per_hop) {
    fnv.mix(f);
  }
  util::Prng prng(fnv.value());

  auto query = std::make_shared<SampledQuery>();
  query->frontier = std::make_shared<const graph::SampledSubgraph>(graph::sample_frontier(
      g, {static_cast<graph::NodeId>(request.seed)}, fanout, prng));
  query->dataset = std::make_shared<const graph::Dataset>(
      graph::subgraph_dataset(*base.dataset, *query->frontier));

  core::SimulationRequest canonical = request.sim;
  if (!device_classes_.empty()) {
    canonical.config = device_classes_.front().config;
  }
  // The fuse key replaces the dataset fingerprint with (base ~f fanout):
  // seed-independent, so distinct frontiers of one (dataset, fanout, model,
  // config, dataflow) class batch together. The exact key embeds the
  // frontier fingerprint: the identity cost/result memos key on.
  query->fuse_key =
      request_class_key(base.fingerprint + "~f" + fanout.canonical(), canonical);
  query->exact_key =
      request_class_key(base.fingerprint + "~s" + query->frontier->fingerprint, canonical);
  return query;
}

std::shared_ptr<const SampledQuery> Server::sampled_for(const Request& request) {
  std::string key = sampled_memo_key(request);
  if (const auto it = sample_memo_.find(key); it != sample_memo_.end()) {
    return it->second;
  }
  std::shared_ptr<const SampledQuery> query = make_sampled_query(request);
  sample_memo_.emplace(std::move(key), query);
  return query;
}

std::vector<const SampledQuery*> Server::sampled_composition(const DispatchBatch& batch) {
  std::vector<const SampledQuery*> parts;
  parts.reserve(batch.requests.size());
  for (const QueuedRequest& q : batch.requests) {
    GNNERATOR_CHECK_MSG(q.sampled != nullptr, "sampled batch mixes full-graph requests");
    const bool seen = std::any_of(parts.begin(), parts.end(), [&](const SampledQuery* p) {
      return p->frontier->fingerprint_value == q.sampled->frontier->fingerprint_value;
    });
    if (!seen) {
      parts.push_back(q.sampled.get());
    }
  }
  return parts;
}

std::string Server::sampled_exec_key(const Device& device, const DispatchBatch& batch) const {
  Fnv1a fnv;
  const std::vector<const SampledQuery*> parts = sampled_composition(batch);
  fnv.mix(parts.size());
  for (const SampledQuery* p : parts) {
    fnv.mix(p->frontier->fingerprint_value);
  }
  std::string key =
      device.klass == kNoClass ? std::string("L") : std::to_string(device.klass);
  key += '|';
  key += batch.requests.front().class_key;  // the fuse class
  key += '|';
  key += hex64(fnv.value());
  return key;
}

void Server::ensure_sampled_results(Device& device, const DispatchBatch& batch) {
  const std::string key = sampled_exec_key(device, batch);
  if (sampled_results_.contains(key)) {
    return;
  }
  const std::vector<const SampledQuery*> parts = sampled_composition(batch);
  const QueuedRequest& front = batch.requests.front();
  const core::SimulationRequest sim = sim_for_slot(front.request.sim, exec_slot(device));
  sim::Tracer tracer;
  sim::Tracer* tp = nullptr;
  if (obs_wants_engine_spans()) {
    tracer.enable(kEngineTraceCap);
    tp = &tracer;
  }
  core::ExecutionResult result;
  if (parts.size() == 1) {
    result = device.engine->run(*parts.front()->dataset, sim.model, sim, tp);
  } else {
    // Mixed-batch fusion: one block-diagonal subgraph, one compiled plan,
    // one device pass for every distinct frontier in the batch.
    std::vector<const graph::SampledSubgraph*> frontiers;
    frontiers.reserve(parts.size());
    for (const SampledQuery* p : parts) {
      frontiers.push_back(p->frontier.get());
    }
    const graph::SampledSubgraph fused = graph::fuse_subgraphs(frontiers);
    const RegisteredDataset& base = registered(front.request.sim.dataset);
    const graph::Dataset fused_dataset = graph::subgraph_dataset(*base.dataset, fused);
    result = device.engine->run(fused_dataset, sim.model, sim, tp);
  }
  if (tp != nullptr) {
    obs_->store_engine_windows(key, obs::Recorder::windows_from_tracer(tracer));
  }
  if (!options_.collect_results) {
    result.output.reset();
  }
  sampled_results_.emplace(key,
                           std::make_shared<const core::ExecutionResult>(std::move(result)));
}

FeatureCache* Server::feature_cache_for(const QueuedRequest& queued) {
  if (!options_.feature_cache.has_value()) {
    return nullptr;
  }
  const std::string& name = queued.request.sim.dataset;
  auto it = feature_caches_.find(name);
  if (it == feature_caches_.end()) {
    // Lazy build at the first sampled dispatch against this dataset — a
    // deterministic sequential point in both loops — under the triggering
    // request's fanout and the fleet's canonical DRAM model (the request's
    // own on a legacy fleet).
    const RegisteredDataset& base = registered(name);
    const mem::DramModel::Config& dram = device_classes_.empty()
                                             ? queued.request.sim.config.dram
                                             : device_classes_.front().config.dram;
    it = feature_caches_
             .try_emplace(name, *base.dataset, graph::parse_fanout(queued.request.fanout),
                          *options_.feature_cache, dram)
             .first;
  }
  return &it->second;
}

void Server::sampled_gather_rows(const DispatchBatch& batch,
                                 std::vector<graph::NodeId>& rows) {
  rows.clear();
  for (const SampledQuery* p : sampled_composition(batch)) {
    rows.insert(rows.end(), p->frontier->vertices.begin(), p->frontier->vertices.end());
  }
}

Cycle Server::sampled_batch_service(Device& device, const DispatchBatch& batch) {
  const auto it = sampled_results_.find(sampled_exec_key(device, batch));
  GNNERATOR_CHECK_MSG(it != sampled_results_.end(), "sampled result missing at dispatch");
  std::uint64_t device_cycles = it->second->cycles;
  if (FeatureCache* cache = feature_cache_for(batch.requests.front())) {
    std::vector<graph::NodeId> rows;
    sampled_gather_rows(batch, rows);
    device_cycles += cache->probe(rows).cycles;
  }
  return scaled_service(device,
                        to_server_cycles(device, device_cycles) +
                            options_.per_request_overhead *
                                static_cast<Cycle>(batch.requests.size()));
}

void Server::commit_sampled_gather(const DispatchBatch& batch) {
  if (FeatureCache* cache = feature_cache_for(batch.requests.front())) {
    std::vector<graph::NodeId> rows;
    sampled_gather_rows(batch, rows);
    cache->commit(rows);
  }
}

std::shared_ptr<const core::ExecutionResult> Server::sampled_result_for(
    const QueuedRequest& queued, Device& device, const DispatchBatch& batch) {
  const auto it = sampled_results_.find(sampled_exec_key(device, batch));
  GNNERATOR_CHECK_MSG(it != sampled_results_.end(), "sampled result missing at completion");
  const std::shared_ptr<const core::ExecutionResult>& fused = it->second;
  if (!fused->output.has_value()) {
    return fused;  // timing mode: nothing to scatter
  }
  // Scatter: the request's rows are its seed vertices inside its own block
  // of the fused output (block offset = sum of preceding block sizes).
  const std::vector<const SampledQuery*> parts = sampled_composition(batch);
  std::size_t offset = 0;
  const graph::SampledSubgraph* frontier = nullptr;
  for (const SampledQuery* p : parts) {
    if (p->frontier->fingerprint_value == queued.sampled->frontier->fingerprint_value) {
      frontier = p->frontier.get();
      break;
    }
    offset += p->frontier->vertices.size();
  }
  GNNERATOR_CHECK_MSG(frontier != nullptr, "request's frontier missing from its batch");
  const gnn::Tensor& full = *fused->output;
  gnn::Tensor scattered(frontier->seeds.size(), full.cols());
  for (std::size_t s = 0; s < frontier->seeds.size(); ++s) {
    const std::span<const float> src = full.row(offset + frontier->seeds[s]);
    std::copy(src.begin(), src.end(), scattered.row(s).begin());
  }
  core::ExecutionResult result;
  result.cycles = fused->cycles;
  result.stats = fused->stats;
  result.kernel_cycles_ticked = fused->kernel_cycles_ticked;
  result.kernel_cycles_skipped = fused->kernel_cycles_skipped;
  result.output = std::move(scattered);
  return std::make_shared<const core::ExecutionResult>(std::move(result));
}

void Server::ensure_class_results(Device& device, const DispatchBatch& batch) {
  const std::size_t slot = exec_slot(device);
  std::vector<ExecIdentity*> missing;
  std::vector<core::SimulationRequest> sims;
  for (const auto& [id, first] : distinct_identities(batch, device)) {
    if (id->result == nullptr) {
      missing.push_back(id);
      sims.push_back(sim_for_slot(first->request.sim, slot));
    }
  }
  if (missing.empty()) {
    return;
  }
  // One run_batch per dispatch covers every distinct identity the batch
  // needs; the shared plan cache means at most one compile across the fleet.
  std::vector<core::ExecutionResult> results;
  if (obs_wants_engine_spans()) {
    // Engine-span capture: serial traced executions (results are identical
    // to run_batch — each batch slot runs its functional arithmetic
    // serially anyway), memoizing each identity's window template.
    results.reserve(sims.size());
    for (std::size_t i = 0; i < sims.size(); ++i) {
      results.push_back(obs_traced_run(device, sims[i], missing[i]->key));
    }
  } else {
    results = device.engine->run_batch(sims);
  }
  for (std::size_t i = 0; i < missing.size(); ++i) {
    if (!options_.collect_results) {
      // The memo only has to answer "how many cycles does this identity
      // occupy a device for"; without collect_results, dropping the
      // functional output keeps a long mixed-seed run from pinning one
      // [V x out_dim] tensor per class forever.
      results[i].output.reset();
    }
    missing[i]->result = std::make_shared<const core::ExecutionResult>(std::move(results[i]));
  }
}

Cycle Server::batch_service_cycles(Device& device, const DispatchBatch& batch) {
  // Device cycles are converted onto the server timeline through the class
  // clock.
  std::uint64_t device_cycles = 0;
  for (const auto& [id, first] : distinct_identities(batch, device)) {
    GNNERATOR_CHECK_MSG(id->result != nullptr, "class result missing at dispatch");
    device_cycles += id->result->cycles;
  }
  return scaled_service(device,
                        to_server_cycles(device, device_cycles) +
                            options_.per_request_overhead *
                                static_cast<Cycle>(batch.requests.size()));
}

Cycle Server::scaled_service(const Device& device, Cycle cycles) const {
  if (device.slow_factor == 1.0) {
    return cycles;
  }
  return static_cast<Cycle>(
      std::llround(static_cast<double>(cycles) / device.slow_factor));
}

// ---- Observability hooks (see server.hpp). ---------------------------------

void Server::obs_begin_run() {
  if (obs_ == nullptr) {
    return;
  }
  obs::RunInfo info;
  info.clock_ghz = options_.clock_ghz;
  info.devices.reserve(devices_.size());
  for (std::size_t di = 0; di < devices_.size(); ++di) {
    info.devices.push_back(obs_device_label(di));
  }
  info.request_classes.reserve(request_classes_.size());
  for (const RequestClass& klass : request_classes_) {
    info.request_classes.push_back(klass.name);
  }
  obs_->begin_run(std::move(info));
}

std::string Server::obs_device_label(std::size_t device) const {
  std::string label = "dev" + std::to_string(device);
  const std::size_t klass = devices_[device].klass;
  if (klass != kNoClass) {
    label += " [" + device_classes_[klass].name + "]";
  }
  return label;
}

const std::string& Server::obs_device_class_name(const Device& device) const {
  static const std::string kLegacy = "legacy";
  return device.klass == kNoClass ? kLegacy : device_classes_[device.klass].name;
}

void Server::obs_admit(const Outcome& record, std::size_t tier, const SampledQuery* sampled) {
  if (obs_ == nullptr || !obs_->options().request_spans) {
    return;
  }
  obs::SpanEvent ev;
  ev.request = record.id;
  ev.at = record.arrival;
  ev.phase = obs::SpanPhase::kAdmit;
  ev.tier = static_cast<std::uint32_t>(tier);
  ev.detail = record.class_key;
  obs_->request_event(std::move(ev));
  if (sampled != nullptr) {
    obs::SpanEvent sev;
    sev.request = record.id;
    sev.at = record.arrival;
    sev.phase = obs::SpanPhase::kSample;
    sev.value = static_cast<std::uint64_t>(sampled->frontier->vertices.size());
    sev.detail = sampled->frontier->fingerprint;
    obs_->request_event(std::move(sev));
  }
}

void Server::obs_terminal(const Outcome& record, Cycle now) {
  if (obs_ == nullptr) {
    return;
  }
  const obs::RecorderOptions& opts = obs_->options();
  if (opts.request_spans) {
    obs::SpanEvent ev;
    ev.request = record.id;
    ev.at = now;
    ev.phase = record.shed ? obs::SpanPhase::kShed : obs::SpanPhase::kFail;
    obs_->request_event(std::move(ev));
  }
  if (opts.device_timeline || opts.request_spans) {
    obs::Mark m;
    m.at = now;
    m.kind = record.shed ? obs::MarkKind::kShed : obs::MarkKind::kFail;
    m.value = record.id;
    obs_->mark(std::move(m));
  }
}

void Server::obs_dispatch(Device& device, const DispatchBatch& batch, Cycle now) {
  if (obs_ == nullptr) {
    return;
  }
  const std::uint32_t di = device_index(device);
  const obs::RecorderOptions& opts = obs_->options();
  if (opts.request_spans) {
    for (const QueuedRequest& q : batch.requests) {
      obs::SpanEvent ev;
      ev.request = q.request.id;
      ev.at = now;
      ev.phase = obs::SpanPhase::kDispatch;
      ev.device = di;
      ev.value = static_cast<std::uint64_t>(batch.requests.size());
      obs_->request_event(std::move(ev));
    }
  }
  // Exec windows (the recorder's execution history; serving cost does not
  // read it) and, when captured, the engine compute sub-spans — one entry
  // per distinct class in the batch, anchored back-to-back at `now` exactly
  // as the service-time sum prices them. All lookups hit memos the dispatch
  // has already filled.
  std::vector<obs::EngineWindow> windows;
  if (opts.exec_windows || (opts.engine_spans && opts.device_timeline)) {
    const std::string& dclass = obs_device_class_name(device);
    const bool sampled = batch.requests.front().sampled != nullptr;
    const auto anchor = [&](const std::string& key, Cycle offset) {
      const std::vector<obs::EngineWindow>* tmpl = obs_->engine_windows(key);
      if (tmpl == nullptr) {
        return;
      }
      for (const obs::EngineWindow& w : *tmpl) {
        obs::EngineWindow abs = w;
        abs.begin = now + offset + scaled_service(device, to_server_cycles(device, w.begin));
        abs.end = now + offset + scaled_service(device, to_server_cycles(device, w.end));
        windows.push_back(std::move(abs));
      }
    };
    if (sampled) {
      const std::string key = sampled_exec_key(device, batch);
      const auto it = sampled_results_.find(key);
      GNNERATOR_CHECK_MSG(it != sampled_results_.end(),
                          "sampled result missing at obs dispatch");
      obs_->record_exec_window(batch.requests.front().class_key, dclass, it->second->cycles);
      if (opts.engine_spans && opts.device_timeline) {
        anchor(key, 0);
      }
    } else {
      Cycle offset = 0;
      for (const auto& [id, first] : distinct_identities(batch, device)) {
        GNNERATOR_CHECK_MSG(id->result != nullptr, "class result missing at obs dispatch");
        obs_->record_exec_window(first->class_key, dclass, id->result->cycles);
        if (opts.engine_spans && opts.device_timeline) {
          anchor(id->key, offset);
        }
        offset += scaled_service(device, to_server_cycles(device, id->result->cycles));
      }
    }
  }
  if (opts.device_timeline) {
    obs_->open_busy(di, now, static_cast<std::uint32_t>(batch.requests.size()),
                    batch.requests.front().class_key);
    if (!windows.empty()) {
      obs_->attach_windows(di, std::move(windows));
    }
  }
}

void Server::obs_device_complete(const Device& device, Cycle now) {
  if (obs_ == nullptr) {
    return;
  }
  obs_->close_busy(device_index(device), now, /*aborted=*/false);
}

void Server::obs_complete(const Outcome& record, Cycle now) {
  if (obs_ == nullptr || !obs_->options().request_spans) {
    return;
  }
  obs::SpanEvent ev;
  ev.request = record.id;
  ev.at = now;
  ev.phase = obs::SpanPhase::kComplete;
  ev.device = record.device;
  ev.value = record.service_cycles;
  obs_->request_event(std::move(ev));
}

core::ExecutionResult Server::obs_traced_run(Device& device,
                                             const core::SimulationRequest& sim,
                                             const std::string& exec_key) {
  sim::Tracer tracer;
  tracer.enable(kEngineTraceCap);
  core::ExecutionResult result = device.engine->run(sim, &tracer);
  obs_->store_engine_windows(exec_key, obs::Recorder::windows_from_tracer(tracer));
  return result;
}

void Server::obs_finish_run(ServeReport& report, Cycle now) {
  obs_->end_run(now);
  if (!obs_->options().any()) {
    return;  // null sink: no streams, no registry publication
  }
  if (obs_->options().exec_windows) {
    report.exec_windows = obs_->exec_window_log().snapshot();
  }

  // ---- Registry publication: the report's numbers, renamed into
  // Prometheus conventions. Counters accumulate across runs; gauges hold the
  // latest run. Deterministic: everything below derives from the report.
  obs::Registry& reg = obs_->registry();
  const MetricsSummary& m = report.metrics;
  reg.counter("serve_runs_total", "Serve runs recorded into this registry").add(1.0);
  reg.counter("serve_requests_total", {{"outcome", "completed"}},
              "Admitted requests by terminal outcome")
      .add(static_cast<std::uint64_t>(m.completed));
  reg.counter("serve_requests_total", {{"outcome", "shed"}}).add(static_cast<std::uint64_t>(m.shed));
  reg.counter("serve_requests_total", {{"outcome", "failed"}})
      .add(static_cast<std::uint64_t>(m.failed));
  reg.counter("serve_retries_total", "Fault-induced aborts").add(m.retries);
  reg.counter("serve_requeues_total", "Aborted requests requeued after backoff")
      .add(m.requeues);
  reg.counter("serve_events_total", "Discrete-event scheduling points").add(report.events);
  reg.counter("serve_scale_ops_total", {{"direction", "up"}}, "Autoscaler fleet mutations")
      .add(report.scale_ups);
  reg.counter("serve_scale_ops_total", {{"direction", "down"}}).add(report.scale_downs);

  reg.gauge("serve_latency_ms", {{"quantile", "0.5"}},
            "Completed-request latency quantiles of the last run")
      .set(m.p50_ms);
  reg.gauge("serve_latency_ms", {{"quantile", "0.95"}}).set(m.p95_ms);
  reg.gauge("serve_latency_ms", {{"quantile", "0.99"}}).set(m.p99_ms);
  reg.gauge("serve_latency_mean_ms").set(m.mean_ms);
  reg.gauge("serve_throughput_rps", "Completed requests per simulated second (last run)")
      .set(m.throughput_rps);
  reg.gauge("serve_slo_attainment").set(m.slo_attainment);
  reg.gauge("serve_queue_depth_mean").set(report.mean_queue_depth);
  reg.gauge("serve_queue_depth_max").set(static_cast<double>(report.max_queue_depth));
  reg.gauge("serve_end_cycle", "Virtual end time of the last run, in server cycles")
      .set(static_cast<double>(report.end_cycle));
  reg.gauge("serve_fleet_utilization").set(report.fleet_utilization());

  for (std::size_t di = 0; di < report.devices.size(); ++di) {
    const DeviceStats& d = report.devices[di];
    obs::Labels labels{{"device", std::to_string(di)}};
    if (!d.klass.empty()) {
      labels.emplace_back("class", d.klass);
    }
    reg.counter("serve_device_busy_cycles_total", labels,
                "Busy server cycles per device")
        .add(d.busy_cycles);
    reg.counter("serve_device_requests_total", labels).add(d.requests);
    if (d.crashes > 0) {
      reg.counter("serve_device_crashes_total", labels).add(d.crashes);
    }
  }

  reg.gauge("plan_cache_hits", "Fleet plan cache (lifetime)").set(static_cast<double>(report.plan_cache.hits));
  reg.gauge("plan_cache_misses").set(static_cast<double>(report.plan_cache.misses));
  reg.gauge("plan_cache_evictions").set(static_cast<double>(report.plan_cache.evictions));
  if (report.feature_cache_enabled) {
    reg.gauge("feature_cache_hits", "Pre-sampling feature cache (lifetime)")
        .set(static_cast<double>(report.feature_cache.hits));
    reg.gauge("feature_cache_misses").set(static_cast<double>(report.feature_cache.misses));
    reg.gauge("feature_cache_bytes_saved")
        .set(static_cast<double>(report.feature_cache.bytes_saved));
  }

  obs::Histogram& latency = reg.histogram(
      "serve_request_latency_ms",
      {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0},
      "Completed-request latency");
  for (const Outcome& outcome : report.outcomes) {
    if (!outcome.shed && !outcome.failed) {
      latency.observe(outcome.latency_ms(report.clock_ghz));
    }
  }

  // The execution history, also visible as metrics: EWMA device cycles per
  // (plan class, device class). Cardinality is bounded by the distinct
  // class pairs (sampled batches record under their fuse key).
  for (const obs::ExecWindow& w : report.exec_windows) {
    reg.gauge("exec_window_ewma_cycles",
              {{"plan_class", w.plan_class}, {"device_class", w.device_class}},
              "Measured execution windows (EWMA of device cycles)")
        .set(w.ewma_cycles);
  }
}

// ---- Elastic serving machinery (see server.hpp). ---------------------------

void Server::flush_device_accounting(Device& device, Cycle now) {
  const Cycle span = now - device.health_since;
  if (device.health == DeviceHealth::kActive) {
    device.stats.active_cycles += span;
  } else {
    device.stats.downtime_cycles += span;
  }
  device.health_since = now;
}

void Server::set_device_health(Device& device, DeviceHealth health, Cycle now) {
  if (device.health == health) {
    return;
  }
  if (obs_ != nullptr && device.health != DeviceHealth::kActive) {
    // Leaving a non-active state closes its trace interval (the span of the
    // state being entered closes at the next transition or end of run).
    obs_->health_span(device_index(device),
                      device.health == DeviceHealth::kCrashed ? obs::DeviceSpanKind::kCrashed
                                                              : obs::DeviceSpanKind::kParked,
                      device.health_since, now);
  }
  flush_device_accounting(device, now);
  device.health = health;
}

Server::ElasticRun Server::make_elastic_run() const {
  ElasticRun er;
  er.enabled = !options_.faults.empty() || options_.autoscale.has_value();
  if (options_.autoscale.has_value()) {
    er.autoscaler.emplace(*options_.autoscale, options_.clock_ghz);
  }
  return er;
}

Cycle Server::elastic_next_event(const ElasticRun& er) const {
  if (!er.enabled) {
    return kNoDeadline;
  }
  Cycle next = kNoDeadline;
  if (er.fault_cursor < options_.faults.events.size()) {
    next = std::min(next, options_.faults.events[er.fault_cursor].at);
  }
  if (!er.requeues.empty()) {
    next = std::min(next, er.requeues.top().at);
  }
  if (er.autoscaler.has_value()) {
    next = std::min(next, er.autoscaler->next_tick());
  }
  return next;
}

void Server::elastic_on_complete(ElasticRun& er, const Outcome& outcome) const {
  if (er.autoscaler.has_value()) {
    er.autoscaler->observe(outcome.latency_ms(options_.clock_ghz));
  }
}

void Server::abort_inflight(EventLoop& loop, Device& device) {
  const Cycle now = loop.now;
  if (!device.inflight_reqs.empty()) {
    GNNERATOR_CHECK_MSG(device.busy_until >= now, "aborting an already-completed batch");
    // Refund the unserved remainder: the device was only busy until the
    // crash, not until the batch's scheduled completion.
    device.stats.busy_cycles -= device.busy_until - now;
    device.stats.aborted += static_cast<std::uint64_t>(device.inflight_reqs.size());
    const std::uint32_t di = device_index(device);
    if (obs_ != nullptr) {
      obs_->close_busy(di, now, /*aborted=*/true);
    }
    for (QueuedRequest& q : device.inflight_reqs) {
      Outcome& record = loop.records[q.request.id];
      // Strip the dispatch stamps: the record reverts to "admitted, not yet
      // served" (identical in both loops — the reference loop stamps its
      // in-flight copies, never the records, before completion).
      record.dispatch = 0;
      record.device = 0;
      record.batch_size = 1;
      record.service_cycles = 0;
      record.result.reset();
      ++record.retries;
      const Cycle backoff = options_.retry_backoff
                            << std::min<std::uint32_t>(record.retries - 1, 20);
      const Cycle ready = now + backoff;
      bool fail = record.retries > options_.retry_budget;
      if (!fail && record.applied_slo_ms > 0.0) {
        const Cycle deadline =
            record.arrival + ms_to_cycles(record.applied_slo_ms, options_.clock_ghz);
        fail = ready > deadline;  // the backoff alone already misses the SLO
      }
      if (obs_ != nullptr) {
        obs::SpanEvent ev;
        ev.request = record.id;
        ev.at = now;
        ev.phase = obs::SpanPhase::kAbort;
        ev.device = di;
        ev.value = record.retries;
        obs_->request_event(std::move(ev));
      }
      if (fail) {
        record.failed = true;
        end_unserved(loop, record);
      } else {
        ++record.requeues;
        if (obs_ != nullptr) {
          obs::SpanEvent ev;
          ev.request = record.id;
          ev.at = now;
          ev.phase = obs::SpanPhase::kRequeue;
          ev.device = di;
          ev.value = ready;
          obs_->request_event(std::move(ev));
        }
        loop.er.requeues.push(ElasticRun::Requeue{ready, loop.er.requeue_seq++, std::move(q)});
      }
    }
  }
  device.inflight.clear();
  device.inflight_reqs.clear();
  device.busy_until = 0;
}

void Server::apply_fault_event(EventLoop& loop, const FaultEvent& event) {
  const Cycle now = loop.now;
  GNNERATOR_CHECK_MSG(event.device < devices_.size(),
                      "fault plan targets dev" << event.device << " but the fleet has "
                                               << devices_.size() << " devices");
  Device& device = devices_[event.device];
  if (obs_ != nullptr) {
    obs::Mark m;
    m.at = now;
    m.device = static_cast<std::uint32_t>(event.device);
    switch (event.kind) {
      case FaultKind::kCrash:
        m.kind = obs::MarkKind::kCrash;
        break;
      case FaultKind::kRecover:
        m.kind = obs::MarkKind::kRecover;
        break;
      case FaultKind::kSlow:
        m.kind = obs::MarkKind::kSlow;
        m.value = static_cast<std::uint64_t>(std::llround(event.factor * 1000.0));
        break;
      case FaultKind::kReclass:
        m.kind = obs::MarkKind::kReclass;
        m.detail = event.klass;
        break;
    }
    obs_->mark(std::move(m));
  }
  switch (event.kind) {
    case FaultKind::kCrash:
      device.stats.crashes += 1;
      abort_inflight(loop, device);
      set_device_health(device, DeviceHealth::kCrashed, now);
      break;
    case FaultKind::kRecover:
      device.slow_factor = 1.0;
      // Only crashes heal; a removed (scaled-down) device stays with the
      // autoscaler.
      if (device.health == DeviceHealth::kCrashed) {
        set_device_health(device, DeviceHealth::kActive, now);
      }
      break;
    case FaultKind::kSlow:
      device.slow_factor = event.factor;
      break;
    case FaultKind::kReclass:
      GNNERATOR_CHECK_MSG(!device_classes_.empty(),
                          "reclass faults need a classed fleet (ServerOptions::fleet)");
      // The in-flight batch (if any) completes under its dispatch-time
      // timing; only subsequent dispatches see the new class.
      device.klass = intern_device_class(event.klass);
      break;
  }
}

bool Server::scale_up(Cycle now) {
  for (std::size_t di = 0; di < devices_.size(); ++di) {
    Device& device = devices_[di];
    if (device.health == DeviceHealth::kRemoved) {
      set_device_health(device, DeviceHealth::kActive, now);
      if (obs_ != nullptr) {
        obs_->mark(obs::Mark{now, obs::MarkKind::kScaleUp, static_cast<std::uint32_t>(di), 0,
                             "reactivated"});
      }
      return true;
    }
  }
  const std::size_t klass = device_classes_.empty() ? kNoClass : 0;
  const std::size_t di = append_device(klass, /*ephemeral=*/true, now);
  if (obs_ != nullptr) {
    obs_->mark(obs::Mark{now, obs::MarkKind::kScaleUp, static_cast<std::uint32_t>(di), 0,
                         "appended"});
  }
  return true;
}

bool Server::scale_down(Cycle now) {
  for (std::size_t di = devices_.size(); di-- > 0;) {
    Device& device = devices_[di];
    if (device.health == DeviceHealth::kActive && device.inflight_reqs.empty()) {
      set_device_health(device, DeviceHealth::kRemoved, now);
      if (obs_ != nullptr) {
        obs_->mark(
            obs::Mark{now, obs::MarkKind::kScaleDown, static_cast<std::uint32_t>(di), 0, ""});
      }
      return true;
    }
  }
  return false;  // every active device is mid-batch; decision lapses
}

void Server::elastic_process(EventLoop& loop) {
  ElasticRun& er = loop.er;
  if (!er.enabled) {
    return;
  }
  const Cycle now = loop.now;
  Scheduler& scheduler = *loop.scheduler;
  while (er.fault_cursor < options_.faults.events.size() &&
         options_.faults.events[er.fault_cursor].at <= now) {
    apply_fault_event(loop, options_.faults.events[er.fault_cursor]);
    ++er.fault_cursor;
  }
  while (!er.requeues.empty() && er.requeues.top().at <= now) {
    // priority_queue::top is const; the element is discarded by pop.
    QueuedRequest q = std::move(const_cast<ElasticRun::Requeue&>(er.requeues.top()).request);
    er.requeues.pop();
    if (obs_ != nullptr) {
      obs::SpanEvent ev;
      ev.request = q.request.id;
      ev.at = now;
      ev.phase = obs::SpanPhase::kResume;
      obs_->request_event(std::move(ev));
    }
    // Requeues bypass the admission queue bound: the request was already
    // admitted once and owns a record.
    scheduler.enqueue(std::move(q), now);
  }
  if (er.autoscaler.has_value() && er.autoscaler->next_tick() <= now) {
    std::size_t active = 0;
    for (const Device& device : devices_) {
      active += device.health == DeviceHealth::kActive ? 1 : 0;
    }
    const Autoscaler::Action action = er.autoscaler->evaluate(now, scheduler.depth(), active);
    if (action == Autoscaler::Action::kUp && scale_up(now)) {
      ++er.scale_ups;
    } else if (action == Autoscaler::Action::kDown && scale_down(now)) {
      ++er.scale_downs;
    }
  }
}

// ---- The event loop (see server.hpp). -------------------------------------

/// run_reference's bookkeeping: one heap holding every arrival — the
/// workload's up-front arrivals, materialized at once, and closed-loop
/// reissues — ordered by (cycle, emission seq), and in-flight records held
/// as Outcome copies that are written back at completion.
struct Server::Reference final : EventLoop {
  struct Pending {
    Cycle at = 0;
    std::uint64_t seq = 0;  ///< emission order: total tie-break at equal cycles
    Request request;
  };
  struct PendingLater {
    bool operator()(const Pending& a, const Pending& b) const {
      return std::tie(a.at, a.seq) > std::tie(b.at, b.seq);
    }
  };
  std::priority_queue<Pending, std::vector<Pending>, PendingLater> arrivals;
  std::uint64_t seq = 0;

  explicit Reference(WorkloadSource& source) : EventLoop(source) {
    for (Request& request : workload.initial_arrivals()) {
      const Cycle at = request.arrival;
      arrivals.push(Pending{at, seq++, std::move(request)});
    }
  }

  Cycle next_arrival() override { return arrivals.empty() ? kNoDeadline : arrivals.top().at; }

  Request take_arrival() override {
    // priority_queue::top is const; the element is discarded by pop.
    Request request = std::move(const_cast<Pending&>(arrivals.top()).request);
    request.arrival = arrivals.top().at;
    arrivals.pop();
    return request;
  }

  void hold(Cycle at, Request request) override {
    arrivals.push(Pending{at, seq++, std::move(request)});
  }

  Outcome& dispatch_record(Device& device, std::uint64_t id) override {
    device.inflight.push_back(records[id]);
    return device.inflight.back();
  }

  const Outcome& complete_record(Device& device, std::size_t i) override {
    Outcome& outcome = device.inflight[i];
    outcome.completion = now;
    records[outcome.id] = outcome;
    return records[outcome.id];
  }
};

ServeReport Server::run_reference(WorkloadSource& workload) {
  Reference reference(workload);
  return run_loop(reference);
}

ServeReport Server::run_loop(EventLoop& loop) {
  obs_begin_run();
  loop.scheduler = make_scheduler(options_.policy, options_.limits, request_classes_);
  loop.er = make_elastic_run();
  Scheduler& scheduler = *loop.scheduler;
  while (true) {
    // ---- Next event: earliest of (batch completion, arrival, scheduler
    // window expiry — only meaningful while an active device is idle,
    // elastic event — only meaningful while work is pending). -------------
    Cycle next = kNoDeadline;
    bool any_idle = false;
    for (const Device& device : devices_) {
      if (!device.inflight_reqs.empty()) {
        next = std::min(next, device.busy_until);
      } else if (device.health == DeviceHealth::kActive) {
        any_idle = true;
      }
    }
    next = std::min(next, loop.next_arrival());
    if (any_idle) {
      next = std::min(next, scheduler.next_ready(loop.now));
    }
    // Elastic events (faults, requeue releases, autoscaler ticks) only
    // matter while there is work for them to act on: gating them on
    // work_pending is what terminates a run with a longer fault schedule
    // than workload, while a pending recover/scale-up still wakes the loop
    // for queued work no current device can take.
    const bool work_pending =
        next != kNoDeadline || scheduler.depth() > 0 || !loop.er.requeues.empty();
    if (work_pending) {
      next = std::min(next, elastic_next_event(loop.er));
    }
    if (next == kNoDeadline) {
      if (scheduler.depth() == 0) {
        break;
      }
      // Keep looping after the drain: failure feedback may reissue
      // closed-loop arrivals.
      fail_stranded(loop);
      continue;
    }
    GNNERATOR_CHECK_MSG(next >= loop.now, "serve event loop time went backwards");
    loop.now = next;
    ++loop.events;

    // ---- Completions (device-index order). ------------------------------
    for (Device& device : devices_) {
      if (device.inflight_reqs.empty() || device.busy_until != loop.now) {
        continue;
      }
      obs_device_complete(device, loop.now);
      for (std::size_t i = 0; i < device.inflight_reqs.size(); ++i) {
        const Outcome& record = loop.complete_record(device, i);
        obs_complete(record, loop.now);
        elastic_on_complete(loop.er, record);
        loop.feed_back(record);
      }
      device.inflight.clear();
      device.inflight_reqs.clear();
    }

    // ---- Elastic events due at `now` (before arrivals: a crashed or
    // scaled fleet is what admission and dispatch must see). ---------------
    elastic_process(loop);

    // ---- Arrivals at `now`, in the order the bookkeeping defines: the
    // workload's emission order, every up-front arrival ahead of any
    // reissue at the same cycle. ------------------------------------------
    while (loop.next_arrival() == loop.now) {
      admit(loop, loop.take_arrival());
    }

    // ---- Dispatch (device-index order; affinity places jointly). ---------
    if (options_.policy == SchedulingPolicy::kAffinity) {
      dispatch_affinity(loop);
    } else {
      for (Device& device : devices_) {
        if (device.health != DeviceHealth::kActive) {
          continue;
        }
        while (device.inflight_reqs.empty()) {
          std::optional<DispatchBatch> popped = scheduler.pop(loop.now);
          if (!popped) {
            break;
          }
          if (dispatch_batch_to(loop, device, std::move(*popped))) {
            break;  // device occupied; move to the next device
          }
          // fully shed: try the next batch for this device
        }
      }
    }

    loop.depth_stats.add(static_cast<double>(scheduler.depth()));
    loop.max_depth = std::max(loop.max_depth, scheduler.depth());
  }
  GNNERATOR_CHECK_MSG(scheduler.depth() == 0, "serve loop ended with queued work");
  return assemble_report(loop);
}

void Server::admit(EventLoop& loop, Request request) {
  GNNERATOR_CHECK_MSG(!request.sim.dataset.empty(), "serve request needs a dataset id");
  GNNERATOR_CHECK_MSG(!request.sim.model.layers.empty(), "serve request needs a model");
  std::size_t tier = 0;
  if (!request.klass.empty()) {
    tier = request_classes_.size();
    for (std::size_t t = 0; t < request_classes_.size(); ++t) {
      if (request_classes_[t].name == request.klass) {
        tier = t;
        break;
      }
    }
    GNNERATOR_CHECK_MSG(tier < request_classes_.size(),
                        "request names unknown class '" << request.klass << "'");
  }
  request.id = static_cast<std::uint64_t>(loop.records.size());
  GNNERATOR_CHECK_MSG(slo_fits(request.slo_ms, options_.clock_ghz),
                      "request " << request.id << " has slo_ms " << request.slo_ms
                                 << ", past the " << options_.clock_ghz
                                 << " GHz cycle clock's range");

  QueuedRequest queued;
  queued.tier = tier;
  if (request.is_sampled()) {
    // Sampling stage: draw (or reuse) the request's k-hop frontier before
    // any compile/cost decision. The fuse key is the batching class, so
    // distinct frontiers of one (dataset, fanout, model, config, dataflow)
    // class coalesce into mixed batches downstream; the class id is the
    // exact (frontier) key, since cost and result memos distinguish
    // subgraph shapes even inside one fuse class.
    queued.sampled = sampled_for(request);
    queued.class_key = queued.sampled->fuse_key;
    queued.class_id = intern_class(queued.sampled->exact_key);
  } else {
    queued.class_key = class_key(request.sim);
    queued.class_id = intern_class(queued.class_key);
  }
  queued.request = std::move(request);
  // The queue cost is the canonical identity's cost: its simulated cycles
  // once it has executed, before that its analytic cycles, priced through
  // the oracle's memo the first time the class is admitted.
  const std::uint64_t cost = cost_cycles(identity(queued, 0), queued, 0);

  const Request& admitted = queued.request;
  const RequestClass& klass = request_classes_[tier];
  Outcome& record = loop.records.emplace_back();
  record.id = admitted.id;
  record.arrival = admitted.arrival;
  record.class_key = queued.class_key;  // the fuse class for sampled requests
  record.klass = klass.name;
  record.applied_slo_ms = admitted.slo_ms > 0.0 ? admitted.slo_ms
                          : klass.slo_ms > 0.0  ? klass.slo_ms
                                                : options_.default_slo_ms;
  obs_admit(record, tier, queued.sampled.get());

  if (options_.queue_capacity > 0 && loop.scheduler->depth() >= options_.queue_capacity) {
    record.shed = true;
    end_unserved(loop, record);
    return;
  }
  queued.cost_estimate = cost;
  loop.scheduler->enqueue(std::move(queued), loop.now);
}

bool Server::dispatch_batch_to(EventLoop& loop, Device& device, DispatchBatch batch) {
  const bool sampled = !batch.requests.empty() && batch.requests.front().sampled != nullptr;
  Cycle service = 0;
  while (true) {
    if (batch.requests.empty()) {
      return false;
    }
    if (sampled) {
      ensure_sampled_results(device, batch);
      service = sampled_batch_service(device, batch);
    } else {
      ensure_class_results(device, batch);
      service = batch_service_cycles(device, batch);
    }
    const std::size_t before = batch.requests.size();
    std::erase_if(batch.requests, [&](const QueuedRequest& queued) {
      Outcome& record = loop.records[queued.request.id];
      if (record.applied_slo_ms <= 0.0) {
        return false;
      }
      const Cycle deadline =
          queued.request.arrival + ms_to_cycles(record.applied_slo_ms, options_.clock_ghz);
      if (loop.now + service <= deadline) {
        return false;
      }
      // A fault-retried request that runs out of SLO is a failure, not a
      // shed: the system took it on and lost it.
      if (record.retries > 0) {
        record.failed = true;
      } else {
        record.shed = true;
      }
      end_unserved(loop, record);
      return true;
    });
    if (batch.requests.size() == before) {
      break;  // nothing shed: `service` prices exactly this batch
    }
  }

  if (sampled) {
    // The batch is committed to the device: apply the feature-cache LRU
    // effects once, at this sequential point.
    commit_sampled_gather(batch);
  }
  obs_dispatch(device, batch, loop.now);
  if (request_classes_.size() > 1) {
    // WFQ accounting at dispatch commit: charge the tier with the cost of
    // the device class that actually executes the batch, not the
    // canonical-class estimate it was queued with.
    loop.scheduler->charge(batch.requests.front().tier, wfq_charge_cost(batch, device));
  }
  for (const QueuedRequest& queued : batch.requests) {
    Outcome& record = loop.dispatch_record(device, queued.request.id);
    record.dispatch = loop.now;
    record.device = device_index(device);
    record.batch_size = static_cast<std::uint32_t>(batch.requests.size());
    record.service_cycles = service;
    if (options_.collect_results) {
      record.result = sampled ? sampled_result_for(queued, device, batch)
                              : identity(queued, exec_slot(device)).result;
    }
  }
  device.inflight_reqs = std::move(batch.requests);
  device.busy_until = loop.now + service;
  device.stats.busy_cycles += service;
  device.stats.batches += 1;
  device.stats.requests += static_cast<std::uint64_t>(device.inflight_reqs.size());
  return true;
}

void Server::dispatch_affinity(EventLoop& loop) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (const QueuedRequest* q : loop.scheduler->ready(loop.now)) {
      std::size_t best = devices_.size();
      Cycle best_eft = kNoDeadline;
      bool best_busy = true;
      for (std::size_t di = 0; di < devices_.size(); ++di) {
        const Device& device = devices_[di];
        if (device.health != DeviceHealth::kActive) {
          continue;  // crashed / scaled-out devices take no placements
        }
        const bool busy = !device.inflight_reqs.empty();
        const Cycle start = busy ? device.busy_until : loop.now;
        const Cycle eft = start + placement_estimate(*q, device);
        // Total order: earliest finish, then idle before busy, then the
        // lower device index (the scan order).
        if (best == devices_.size() || eft < best_eft ||
            (eft == best_eft && !busy && best_busy)) {
          best = di;
          best_eft = eft;
          best_busy = busy;
        }
      }
      if (best_busy) {
        continue;  // held for a busy device
      }
      std::optional<QueuedRequest> taken = loop.scheduler->try_take(q->request.id);
      GNNERATOR_CHECK_MSG(taken.has_value(), "affinity scheduler lost a ready request");
      DispatchBatch batch;
      batch.requests.push_back(std::move(*taken));
      (void)dispatch_batch_to(loop, devices_[best], std::move(batch));
      progress = true;
      break;  // the ready view is invalidated; rescan
    }
  }
}

void Server::fail_stranded(EventLoop& loop) {
  Scheduler& scheduler = *loop.scheduler;
  const Cycle ready_at = scheduler.next_ready(loop.now);
  if (ready_at != kNoDeadline && ready_at > loop.now) {
    loop.now = ready_at;
  }
  ++loop.events;
  const std::size_t before = scheduler.depth();
  while (std::optional<DispatchBatch> popped = scheduler.pop(loop.now)) {
    for (QueuedRequest& q : popped->requests) {
      Outcome& record = loop.records[q.request.id];
      record.failed = true;
      end_unserved(loop, record);
    }
  }
  GNNERATOR_CHECK_MSG(scheduler.depth() < before, "serve loop stalled with queued work");
}

void Server::end_unserved(EventLoop& loop, Outcome& record) {
  record.dispatch = loop.now;
  record.completion = loop.now;
  obs_terminal(record, loop.now);
  loop.feed_back(record);
}

ServeReport Server::assemble_report(EventLoop& loop) {
  const Cycle now = loop.now;
  std::vector<Outcome>& records = loop.records;
  for (const Outcome& record : records) {
    GNNERATOR_CHECK_MSG(record.arrival <= record.dispatch && record.dispatch <= record.completion,
                        "request " << record.id << " ended with arrival " << record.arrival
                                   << ", dispatch " << record.dispatch << ", completion "
                                   << record.completion);
  }
  ServeReport report;
  report.end_cycle = now;
  report.clock_ghz = options_.clock_ghz;
  report.events = loop.events;
  report.scale_ups = loop.er.scale_ups;
  report.scale_downs = loop.er.scale_downs;
  Metrics metrics(options_.clock_ghz);
  for (const Outcome& record : records) {
    metrics.add(record);
  }
  report.metrics = metrics.summary(now);
  report.outcomes = std::move(records);
  report.devices.reserve(devices_.size());
  for (Device& device : devices_) {
    if (obs_ != nullptr && device.health != DeviceHealth::kActive) {
      // Devices ending the run crashed / scaled out close their trailing
      // health interval here (active time needs no span — busy spans and
      // the run bounds cover it).
      obs_->health_span(device_index(device),
                        device.health == DeviceHealth::kCrashed
                            ? obs::DeviceSpanKind::kCrashed
                            : obs::DeviceSpanKind::kParked,
                        device.health_since, now);
    }
    flush_device_accounting(device, now);
    GNNERATOR_CHECK_MSG(device.stats.busy_cycles <= device.stats.active_cycles,
                        "device " << device_index(device) << " was busy "
                                  << device.stats.busy_cycles << " cycles but active only "
                                  << device.stats.active_cycles);
    device.stats.klass = device.klass == kNoClass ? "" : device_classes_[device.klass].name;
    report.devices.push_back(device.stats);
    // Reset for the next serve() run: stats restart, and the fleet reverts
    // to its configured classes (fault and autoscaler mutations are
    // per-run).
    device.stats = DeviceStats{};
    device.busy_until = 0;
    device.health = DeviceHealth::kActive;
    device.klass = device.baseline_klass;
    device.slow_factor = 1.0;
    device.health_since = 0;
    device.inflight.clear();
    device.inflight_reqs.clear();
  }
  std::erase_if(devices_, [](const Device& device) { return device.ephemeral; });
  report.plan_cache = plan_cache_->stats();
  report.feature_cache_enabled = options_.feature_cache.has_value();
  for (const auto& [name, cache] : feature_caches_) {
    report.feature_cache.merge(cache.stats());
  }
  report.mean_queue_depth = loop.depth_stats.count() > 0 ? loop.depth_stats.mean() : 0.0;
  report.max_queue_depth = loop.max_depth;
  if (obs_ != nullptr) {
    obs_finish_run(report, now);
  }
  return report;
}

}  // namespace gnnerator::serve
