#include "serve/workload.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "graph/sample.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/parse.hpp"

namespace gnnerator::serve {

namespace {

std::vector<double> mix_weights(const std::vector<RequestTemplate>& mix) {
  GNNERATOR_CHECK_MSG(!mix.empty(), "workload needs a non-empty request mix");
  std::vector<double> weights;
  weights.reserve(mix.size());
  for (const RequestTemplate& t : mix) {
    GNNERATOR_CHECK_MSG(t.weight >= 0.0, "negative mix weight");
    weights.push_back(t.weight);
  }
  return weights;
}

Request instantiate(const RequestTemplate& t, Cycle arrival) {
  Request request;
  request.arrival = arrival;
  request.sim = t.sim;
  request.slo_ms = t.slo_ms;
  request.klass = t.klass;
  return request;
}

/// Exponential draw of mean `mean_cycles`, in whole cycles.
Cycle exponential_cycles(util::Prng& prng, double mean_cycles) {
  if (mean_cycles <= 0.0) {
    return 0;
  }
  const double u = prng.uniform();  // [0, 1)
  const double gap = -std::log1p(-u) * mean_cycles;
  return static_cast<Cycle>(std::llround(gap));
}

}  // namespace

std::vector<Request> WorkloadSource::on_outcome(const Outcome& /*outcome*/) { return {}; }

PoissonWorkload::PoissonWorkload(std::vector<RequestTemplate> mix, double rate_rps,
                                 std::size_t num_requests, double clock_ghz,
                                 std::uint64_t seed)
    : mix_(std::move(mix)),
      rate_rps_(rate_rps),
      num_requests_(num_requests),
      clock_ghz_(clock_ghz),
      prng_(seed) {
  GNNERATOR_CHECK_MSG(rate_rps_ > 0.0, "Poisson arrival rate must be positive");
}

std::vector<Request> PoissonWorkload::initial_arrivals() {
  const std::vector<double> weights = mix_weights(mix_);
  const double mean_gap_cycles = clock_ghz_ * 1e9 / rate_rps_;
  std::vector<Request> arrivals;
  arrivals.reserve(num_requests_);
  Cycle now = 0;
  for (std::size_t i = 0; i < num_requests_; ++i) {
    now += exponential_cycles(prng_, mean_gap_cycles);
    arrivals.push_back(instantiate(mix_[prng_.weighted_index(weights)], now));
  }
  return arrivals;
}

SampledQueryWorkload::SampledQueryWorkload(std::vector<Entry> entries, double rate_rps,
                                           std::size_t num_requests, double clock_ghz,
                                           std::uint64_t seed)
    : entries_(std::move(entries)),
      rate_rps_(rate_rps),
      num_requests_(num_requests),
      clock_ghz_(clock_ghz),
      prng_(seed) {
  GNNERATOR_CHECK_MSG(!entries_.empty(), "sampled workload needs a non-empty entry mix");
  GNNERATOR_CHECK_MSG(rate_rps_ > 0.0, "sampled workload arrival rate must be positive");
  entry_weights_.reserve(entries_.size());
  seed_weights_.reserve(entries_.size());
  for (const Entry& e : entries_) {
    GNNERATOR_CHECK_MSG(e.dataset != nullptr, "sampled workload entry needs a base dataset");
    GNNERATOR_CHECK_MSG(!e.fanout.empty(), "sampled workload entry needs a fanout spec");
    (void)graph::parse_fanout(e.fanout);  // fail fast on a malformed spec
    GNNERATOR_CHECK_MSG(e.tmpl.weight >= 0.0, "negative mix weight");
    entry_weights_.push_back(e.tmpl.weight);
    const graph::Graph& g = e.dataset->graph;
    std::vector<double> weights(g.num_nodes());
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      weights[v] = static_cast<double>(g.in_degree(v)) + 1.0;
    }
    seed_weights_.push_back(std::move(weights));
  }
}

std::vector<Request> SampledQueryWorkload::initial_arrivals() {
  const double mean_gap_cycles = clock_ghz_ * 1e9 / rate_rps_;
  std::vector<Request> arrivals;
  arrivals.reserve(num_requests_);
  Cycle now = 0;
  for (std::size_t i = 0; i < num_requests_; ++i) {
    now += exponential_cycles(prng_, mean_gap_cycles);
    const std::size_t e = prng_.weighted_index(entry_weights_);
    Request request = instantiate(entries_[e].tmpl, now);
    request.seed = static_cast<std::int64_t>(prng_.weighted_index(seed_weights_[e]));
    request.fanout = entries_[e].fanout;
    arrivals.push_back(std::move(request));
  }
  return arrivals;
}

MmppWorkload::MmppWorkload(std::vector<RequestTemplate> mix, std::vector<MmppState> states,
                           std::size_t num_requests, double clock_ghz, std::uint64_t seed)
    : mix_(std::move(mix)),
      states_(std::move(states)),
      num_requests_(num_requests),
      clock_ghz_(clock_ghz),
      prng_(seed) {
  GNNERATOR_CHECK_MSG(!states_.empty(), "MMPP needs at least one state");
  for (const MmppState& s : states_) {
    GNNERATOR_CHECK_MSG(s.rate_rps > 0.0, "MMPP state rate must be positive");
    GNNERATOR_CHECK_MSG(s.mean_dwell_ms > 0.0, "MMPP state dwell must be positive");
  }
}

std::vector<Request> MmppWorkload::initial_arrivals() {
  const std::vector<double> weights = mix_weights(mix_);
  std::vector<Request> arrivals;
  arrivals.reserve(num_requests_);
  std::size_t state = 0;
  Cycle now = 0;
  // The chain leaves the current state at `switch_at`. Because exponential
  // gaps are memoryless, a gap cut short by a state switch is simply
  // redrawn at the new state's rate from the switch instant — the result
  // is exactly an MMPP, not an approximation.
  Cycle switch_at = exponential_cycles(prng_, states_[0].mean_dwell_ms * clock_ghz_ * 1e6);
  for (std::size_t i = 0; i < num_requests_;) {
    const double mean_gap_cycles = clock_ghz_ * 1e9 / states_[state].rate_rps;
    const Cycle candidate = now + exponential_cycles(prng_, mean_gap_cycles);
    if (states_.size() > 1 && candidate >= switch_at) {
      now = switch_at;
      // Uniform jump among the *other* states.
      state = (state + 1 + prng_.uniform_u64(states_.size() - 1)) % states_.size();
      switch_at =
          now + exponential_cycles(prng_, states_[state].mean_dwell_ms * clock_ghz_ * 1e6);
      continue;
    }
    now = candidate;
    arrivals.push_back(instantiate(mix_[prng_.weighted_index(weights)], now));
    ++i;
  }
  return arrivals;
}

std::vector<MmppState> parse_mmpp_spec(std::string_view spec) {
  std::vector<MmppState> states;
  std::size_t pos = 0;
  std::size_t index = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::size_t end = comma == std::string_view::npos ? spec.size() : comma;
    const std::string_view raw = spec.substr(pos, end - pos);
    const std::string_view tok = util::trim(raw);
    const auto ctx = [&] {
      std::ostringstream os;
      os << "MMPP spec element " << index << " ('" << tok << "') at offset " << pos;
      return os.str();
    };
    GNNERATOR_CHECK_MSG(!tok.empty(), ctx() << ": empty element");
    const std::size_t colon = tok.find(':');
    GNNERATOR_CHECK_MSG(colon != std::string_view::npos,
                        ctx() << ": expected rate:dwell-ms");
    const std::optional<double> rate = util::parse_double(tok.substr(0, colon));
    const std::optional<double> dwell = util::parse_double(tok.substr(colon + 1));
    GNNERATOR_CHECK_MSG(rate.has_value() && std::isfinite(*rate) && *rate > 0.0,
                        ctx() << ": malformed, non-finite or non-positive rate");
    GNNERATOR_CHECK_MSG(dwell.has_value() && std::isfinite(*dwell) && *dwell > 0.0,
                        ctx() << ": malformed, non-finite or non-positive dwell");
    states.push_back({*rate, *dwell});
    ++index;
    if (comma == std::string_view::npos) {
      break;
    }
    pos = comma + 1;
  }
  GNNERATOR_CHECK_MSG(!states.empty(), "MMPP spec needs at least one rate:dwell state");
  return states;
}

ClosedLoopWorkload::ClosedLoopWorkload(std::vector<RequestTemplate> mix,
                                       std::size_t num_clients, std::size_t total_requests,
                                       double think_ms, double clock_ghz, std::uint64_t seed)
    : mix_(std::move(mix)),
      weights_(mix_weights(mix_)),
      num_clients_(num_clients),
      total_requests_(total_requests),
      think_ms_(think_ms),
      clock_ghz_(clock_ghz),
      prng_(seed) {
  GNNERATOR_CHECK_MSG(num_clients_ > 0, "closed loop needs at least one client");
}

Request ClosedLoopWorkload::next_request(Cycle issue_at) {
  ++issued_;
  return instantiate(mix_[prng_.weighted_index(weights_)], issue_at);
}

std::vector<Request> ClosedLoopWorkload::initial_arrivals() {
  std::vector<Request> arrivals;
  const std::size_t first_wave = std::min(num_clients_, total_requests_);
  arrivals.reserve(first_wave);
  for (std::size_t c = 0; c < first_wave; ++c) {
    arrivals.push_back(next_request(/*issue_at=*/0));
  }
  return arrivals;
}

std::vector<Request> ClosedLoopWorkload::on_outcome(const Outcome& outcome) {
  if (issued_ >= total_requests_) {
    return {};  // this client retires
  }
  const Cycle think = exponential_cycles(prng_, think_ms_ * clock_ghz_ * 1e6);
  return {next_request(outcome.completion + think)};
}

namespace {

/// The optional trace columns the header declares.
struct TraceColumns {
  bool has_class = false;
  bool has_sample = false;  ///< the seed,fanout pair
};

/// Validates the trace header row; returns which optional columns are
/// present. The fixed prefix is arrival_ms,dataset,model,slo_ms; `class`
/// (if any) comes next, then the seed,fanout pair (always together).
TraceColumns check_trace_header(const std::vector<std::string>& header) {
  const auto header_cell = [&](std::size_t i) {
    return i < header.size() ? util::trim(header[i]) : std::string_view{};
  };
  GNNERATOR_CHECK_MSG(header.size() >= 4 && header_cell(0) == "arrival_ms" &&
                          header_cell(1) == "dataset" && header_cell(2) == "model" &&
                          header_cell(3) == "slo_ms",
                      "trace header must be arrival_ms,dataset,model,slo_ms"
                      "[,class][,seed,fanout]");
  TraceColumns cols;
  std::size_t next = 4;
  if (header_cell(next) == "class") {
    cols.has_class = true;
    ++next;
  }
  if (header_cell(next) == "seed") {
    GNNERATOR_CHECK_MSG(header_cell(next + 1) == "fanout",
                        "trace header: seed column must be followed by fanout");
    cols.has_sample = true;
    next += 2;
  }
  GNNERATOR_CHECK_MSG(header.size() <= next, "trace header has unknown extra columns");
  return cols;
}

/// Parses one data row (file row `r`, header = 0) into a Request; nullopt
/// for a blank line. Shared by the in-memory and streaming replays so the
/// two paths cannot drift in dialect or strictness.
std::optional<Request> parse_trace_row(const std::vector<std::string>& row, std::size_t r,
                                       const core::SimulationRequest& base, double clock_ghz,
                                       const TraceColumns& cols) {
  if (row.size() == 1 && util::trim(row[0]).empty()) {
    return std::nullopt;  // blank line
  }
  GNNERATOR_CHECK_MSG(row.size() >= 4, "trace row " << r << " has " << row.size()
                                                    << " cells, expected at least 4");
  Request request;
  request.sim = base;
  // Strict numeric parses: whitespace around the number is fine, trailing
  // garbage ("1.5x") is a malformed row, never a silent truncation.
  const std::optional<double> arrival_ms = util::parse_double(row[0]);
  const std::optional<double> slo_ms = util::parse_double(row[3]);
  GNNERATOR_CHECK_MSG(arrival_ms.has_value() && std::isfinite(*arrival_ms),
                      "trace row " << r << ": malformed arrival_ms '" << row[0] << "'");
  GNNERATOR_CHECK_MSG(slo_ms.has_value() && std::isfinite(*slo_ms),
                      "trace row " << r << ": malformed slo_ms '" << row[3] << "'");
  request.slo_ms = *slo_ms;
  GNNERATOR_CHECK_MSG(*arrival_ms >= 0.0,
                      "trace row " << r << ": negative arrival_ms " << *arrival_ms);
  GNNERATOR_CHECK_MSG(request.slo_ms >= 0.0,
                      "trace row " << r << ": negative slo_ms " << request.slo_ms);
  GNNERATOR_CHECK_MSG(fits_cycles(*arrival_ms, clock_ghz),
                      "trace row " << r << ": arrival_ms " << *arrival_ms
                                   << " is past the range of the cycle clock");
  GNNERATOR_CHECK_MSG(slo_fits(request.slo_ms, clock_ghz),
                      "trace row " << r << ": slo_ms " << request.slo_ms
                                   << " is past the range of the cycle clock");
  request.arrival = ms_to_cycles(*arrival_ms, clock_ghz);
  const std::string dataset_name(util::trim(row[1]));
  const std::optional<graph::DatasetSpec> spec = graph::find_dataset(dataset_name);
  GNNERATOR_CHECK_MSG(spec.has_value(),
                      "trace row " << r << ": unknown dataset '" << dataset_name << "'");
  request.sim.dataset = spec->name;
  const std::string_view model_name = util::trim(row[2]);
  std::optional<gnn::LayerKind> kind;
  for (const gnn::LayerKind k :
       {gnn::LayerKind::kGcn, gnn::LayerKind::kSageMean, gnn::LayerKind::kSagePool}) {
    if (model_name == gnn::layer_kind_name(k)) {
      kind = k;
    }
  }
  GNNERATOR_CHECK_MSG(kind.has_value(), "trace row " << r << ": unknown model '"
                                                     << model_name
                                                     << "' (gcn, gsage, gsage-max)");
  request.sim.model = core::table3_model(*kind, *spec);
  std::size_t next = 4;
  if (cols.has_class) {
    if (row.size() > next) {
      request.klass = std::string(util::trim(row[next]));
    }
    ++next;
  }
  if (cols.has_sample && row.size() > next) {
    const std::string_view seed_cell = util::trim(row[next]);
    // A blank or -1 seed cell keeps the row a classic full-graph request.
    if (!seed_cell.empty() && seed_cell != "-1") {
      const std::optional<std::uint64_t> seed = util::parse_uint(seed_cell);
      GNNERATOR_CHECK_MSG(seed.has_value(),
                          "trace row " << r << ": malformed seed '" << seed_cell << "'");
      GNNERATOR_CHECK_MSG(*seed < spec->num_nodes,
                          "trace row " << r << ": seed " << *seed << " out of range for "
                                       << spec->name << " (V=" << spec->num_nodes << ")");
      request.seed = static_cast<std::int64_t>(*seed);
      {
        request.fanout = std::string(util::trim(row.size() > next + 1 ? row[next + 1] : ""));
        GNNERATOR_CHECK_MSG(!request.fanout.empty(),
                            "trace row " << r << ": sampled row needs a fanout cell");
        (void)graph::parse_fanout(request.fanout);  // malformed specs name the row
      }
    }
  }
  return request;
}

}  // namespace

std::vector<Request> StreamingWorkloadSource::initial_arrivals() {
  std::vector<Request> all;
  while (pull(4096, all) > 0) {
  }
  return all;
}

TraceWorkload TraceWorkload::from_file(const std::string& path,
                                       const core::SimulationRequest& base,
                                       double clock_ghz) {
  // Row-at-a-time through the streaming reader: the arrivals vector is the
  // only thing proportional to the trace.
  util::CsvStreamReader reader(path);
  std::optional<std::vector<std::string>> header = reader.next_row();
  GNNERATOR_CHECK_MSG(header.has_value(), "empty workload trace");
  const TraceColumns cols = check_trace_header(*header);
  // A header-only trace is a valid empty workload (the generator matched
  // nothing) — replaying it serves zero requests instead of throwing.
  TraceWorkload workload;
  std::size_t r = 0;
  while (std::optional<std::vector<std::string>> row = reader.next_row()) {
    std::optional<Request> request = parse_trace_row(*row, ++r, base, clock_ghz, cols);
    if (request.has_value()) {
      workload.arrivals_.push_back(std::move(*request));
    }
  }
  return workload;
}

std::vector<Request> TraceWorkload::initial_arrivals() { return arrivals_; }

StreamingTraceWorkload::StreamingTraceWorkload(const std::string& path,
                                               const core::SimulationRequest& base,
                                               double clock_ghz, std::size_t chunk_bytes)
    : reader_(path, chunk_bytes), base_(base), clock_ghz_(clock_ghz) {
  std::optional<std::vector<std::string>> header = reader_.next_row();
  GNNERATOR_CHECK_MSG(header.has_value(), "empty workload trace");
  const TraceColumns cols = check_trace_header(*header);
  has_class_ = cols.has_class;
  has_sample_ = cols.has_sample;
}

std::size_t StreamingTraceWorkload::pull(std::size_t max, std::vector<Request>& out) {
  GNNERATOR_CHECK_MSG(max > 0, "streaming pull needs a positive batch size");
  std::size_t appended = 0;
  while (appended < max) {
    std::optional<std::vector<std::string>> row = reader_.next_row();
    if (!row.has_value()) {
      break;
    }
    ++row_index_;
    std::optional<Request> request =
        parse_trace_row(*row, row_index_, base_, clock_ghz_,
                        TraceColumns{has_class_, has_sample_});
    if (!request.has_value()) {
      continue;  // blank line
    }
    // Replays re-parse arrival_ms for the check: the comparison must happen
    // in the column's own unit, before cycle rounding can mask an
    // out-of-order pair.
    const double arrival_ms = cycles_to_ms(request->arrival, clock_ghz_);
    GNNERATOR_CHECK_MSG(arrival_ms >= last_arrival_ms_,
                        "trace row " << row_index_
                                     << ": arrivals must be sorted by arrival_ms for "
                                        "streaming replay (got "
                                     << arrival_ms << " after " << last_arrival_ms_ << ")");
    last_arrival_ms_ = arrival_ms;
    out.push_back(std::move(*request));
    ++appended;
    ++rows_streamed_;
  }
  return appended;
}

std::size_t write_synthetic_trace(const std::string& path, const TraceSpec& spec) {
  GNNERATOR_CHECK_MSG(!spec.datasets.empty(), "synthetic trace needs at least one dataset");
  GNNERATOR_CHECK_MSG(!spec.models.empty(), "synthetic trace needs at least one model");
  GNNERATOR_CHECK_MSG(spec.rate_rps > 0.0, "synthetic trace needs a positive arrival rate");
  GNNERATOR_CHECK_MSG(spec.clock_ghz > 0.0, "synthetic trace needs a positive clock");
  const bool diurnal = spec.diurnal_period_ms > 0.0 && spec.diurnal_amplitude > 0.0;
  if (diurnal) {
    GNNERATOR_CHECK_MSG(spec.diurnal_amplitude <= 1.0,
                        "diurnal amplitude must be in [0, 1], got " << spec.diurnal_amplitude);
  }
  const bool sampled = !spec.sample_fanout.empty();
  std::vector<graph::NodeId> dataset_nodes;
  if (sampled) {
    (void)graph::parse_fanout(spec.sample_fanout);  // fail before writing rows
    dataset_nodes.reserve(spec.datasets.size());
    for (const std::string& name : spec.datasets) {
      const std::optional<graph::DatasetSpec> ds = graph::find_dataset(name);
      GNNERATOR_CHECK_MSG(ds.has_value(), "synthetic trace: unknown dataset '" << name << "'");
      dataset_nodes.push_back(ds->num_nodes);
    }
  }
  std::ofstream out(path, std::ios::trunc);
  GNNERATOR_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "arrival_ms,dataset,model,slo_ms" << (spec.classes.empty() ? "" : ",class")
      << (sampled ? ",seed,fanout" : "") << "\n";

  util::Prng prng(spec.seed);
  // With a diurnal profile, rate_rps is the *peak* of the sinusoid; the
  // envelope runs at that peak and candidates are thinned with probability
  // (1 + a*sin(2*pi*t/T)) / (1 + a), so the written trace is an exact
  // inhomogeneous Poisson stream, still sorted, with exactly num_requests
  // rows.
  const double mean_gap_cycles = spec.clock_ghz * 1e9 / spec.rate_rps;
  Cycle at = 0;
  for (std::size_t i = 0; i < spec.num_requests; ++i) {
    at += exponential_cycles(prng, mean_gap_cycles);
    if (diurnal) {
      constexpr double kTwoPi = 6.283185307179586;
      while (true) {
        const double t_ms = cycles_to_ms(at, spec.clock_ghz);
        const double accept =
            (1.0 + spec.diurnal_amplitude * std::sin(kTwoPi * t_ms / spec.diurnal_period_ms)) /
            (1.0 + spec.diurnal_amplitude);
        if (prng.uniform() < accept) {
          break;
        }
        at += exponential_cycles(prng, mean_gap_cycles);
      }
    }
    const std::uint64_t dataset_index = prng.uniform_u64(spec.datasets.size());
    out << cycles_to_ms(at, spec.clock_ghz) << ',' << spec.datasets[dataset_index] << ','
        << spec.models[prng.uniform_u64(spec.models.size())] << ',' << spec.slo_ms;
    if (!spec.classes.empty()) {
      out << ',' << spec.classes[prng.uniform_u64(spec.classes.size())];
    }
    if (sampled) {
      out << ',' << prng.uniform_u64(dataset_nodes[dataset_index]) << ','
          << spec.sample_fanout;
    }
    out << '\n';
  }
  GNNERATOR_CHECK_MSG(out.good(), "write failed for " << path);
  return spec.num_requests;
}

}  // namespace gnnerator::serve
