#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/datasets.hpp"
#include "serve/request.hpp"
#include "util/csv.hpp"
#include "util/prng.hpp"

namespace gnnerator::serve {

/// One entry of a workload mix: what a request class looks like and how
/// often it occurs (weights are relative, need not sum to 1).
struct RequestTemplate {
  core::SimulationRequest sim;
  double slo_ms = 0.0;
  double weight = 1.0;
  /// Request class (SLO tier) name; empty = the server's first class.
  std::string klass;
};

/// A source of timed arrivals for Server::serve. The server pulls the
/// up-front arrivals once, then feeds every per-request outcome back —
/// closed-loop generators use the feedback to re-arm their clients,
/// open-loop generators ignore it. All randomness comes from util::Prng, so
/// a (source, seed) pair always produces the identical arrival sequence.
class WorkloadSource {
 public:
  virtual ~WorkloadSource() = default;

  /// Arrivals known before serving starts (open-loop: the whole trace;
  /// closed-loop: each client's first request). May be unsorted; the
  /// server orders them by (arrival cycle, emission index).
  virtual std::vector<Request> initial_arrivals() = 0;

  /// Arrivals triggered by a request finishing (or being shed). Closed-loop
  /// clients re-issue here after think time.
  virtual std::vector<Request> on_outcome(const Outcome& outcome);
};

/// A workload whose arrivals can be pulled incrementally in non-decreasing
/// arrival order — the bounded-memory contract million-request traces need.
/// Server::serve consumes these chunk-by-chunk (at most one chunk of
/// not-yet-admitted arrivals is in memory at a time); consumers of the base
/// contract (Server::run_reference) still work because initial_arrivals()
/// bridges by draining the stream.
class StreamingWorkloadSource : public WorkloadSource {
 public:
  /// Appends up to `max` further arrivals to `out`, in non-decreasing
  /// arrival order (a stream that goes backwards in time throws
  /// CheckError); returns the number appended — 0 once the stream is
  /// drained. `max` must be positive.
  virtual std::size_t pull(std::size_t max, std::vector<Request>& out) = 0;

  /// Drains the whole stream into one vector. Defeats the bounded-memory
  /// point, but keeps every streaming source usable wherever a
  /// WorkloadSource is expected (the reference event loop, tests).
  std::vector<Request> initial_arrivals() final;
};

/// Open-loop Poisson arrivals: `num_requests` requests with exponential
/// inter-arrival gaps at `rate_rps` requests per second (of simulated device
/// time), each drawn from the mix by weight. The textbook "heavy traffic"
/// model: arrivals do not slow down when the fleet saturates, so queues —
/// and tail latency — grow until admission control sheds load.
class PoissonWorkload final : public WorkloadSource {
 public:
  PoissonWorkload(std::vector<RequestTemplate> mix, double rate_rps,
                  std::size_t num_requests, double clock_ghz, std::uint64_t seed);

  std::vector<Request> initial_arrivals() override;

 private:
  std::vector<RequestTemplate> mix_;
  double rate_rps_;
  std::size_t num_requests_;
  double clock_ghz_;
  util::Prng prng_;
};

/// Open-loop Poisson arrivals of sampled mini-batch queries: every request
/// carries a seed vertex (drawn per-arrival, proportionally to in-degree + 1
/// — hubs are queried more, matching how production GNN serving traffic
/// concentrates on popular entities) and the entry's fanout spec. Seed draws
/// over a skewed degree profile are what makes frontier coalescing and the
/// pre-sampling feature cache pay off. Deterministic in (entries, seed).
class SampledQueryWorkload final : public WorkloadSource {
 public:
  struct Entry {
    RequestTemplate tmpl;
    /// The base graph seed vertices are drawn from. Must match
    /// tmpl.sim.dataset and outlive the workload.
    const graph::Dataset* dataset = nullptr;
    /// Per-hop fanout spec (graph::parse_fanout grammar, e.g. "10/5").
    std::string fanout;
  };

  SampledQueryWorkload(std::vector<Entry> entries, double rate_rps,
                       std::size_t num_requests, double clock_ghz, std::uint64_t seed);

  std::vector<Request> initial_arrivals() override;

 private:
  std::vector<Entry> entries_;
  std::vector<double> entry_weights_;
  /// Per entry: in_degree(v) + 1 over the entry's base graph.
  std::vector<std::vector<double>> seed_weights_;
  double rate_rps_;
  std::size_t num_requests_;
  double clock_ghz_;
  util::Prng prng_;
};

/// One regime of a Markov-modulated Poisson process: while the chain dwells
/// in this state, arrivals are Poisson at `rate_rps`; the dwell time itself
/// is exponential with mean `mean_dwell_ms`.
struct MmppState {
  double rate_rps = 0.0;
  double mean_dwell_ms = 0.0;
};

/// Markov-modulated Poisson arrivals: a continuous-time chain jumps between
/// `states` (exponential dwell per state, uniform jump among the other
/// states), and arrivals are Poisson at the current state's rate. Models
/// bursty traffic — e.g. a "calm" regime punctuated by "busy" regimes —
/// which stresses the autoscaler far harder than a stationary Poisson
/// stream. Because the exponential is memoryless, the gap in progress is
/// simply redrawn at the new rate on every state switch; the process is
/// deterministic in (states, seed).
class MmppWorkload final : public WorkloadSource {
 public:
  MmppWorkload(std::vector<RequestTemplate> mix, std::vector<MmppState> states,
               std::size_t num_requests, double clock_ghz, std::uint64_t seed);

  std::vector<Request> initial_arrivals() override;

 private:
  std::vector<RequestTemplate> mix_;
  std::vector<MmppState> states_;
  std::size_t num_requests_;
  double clock_ghz_;
  util::Prng prng_;
};

/// Parses an MMPP spec "rate:dwell-ms,rate:dwell-ms,..." (one element per
/// state, at least one) with the same strict numeric parsing as the fleet
/// and fault specs; errors name the offending element and character offset.
std::vector<MmppState> parse_mmpp_spec(std::string_view spec);

/// Closed-loop clients: `num_clients` clients each keep exactly one request
/// outstanding; when it completes (or is shed) the client thinks for an
/// exponential time of mean `think_ms` and issues the next one, until
/// `total_requests` have been issued overall. Offered load self-regulates
/// with fleet speed — the classic interactive-user model.
class ClosedLoopWorkload final : public WorkloadSource {
 public:
  ClosedLoopWorkload(std::vector<RequestTemplate> mix, std::size_t num_clients,
                     std::size_t total_requests, double think_ms, double clock_ghz,
                     std::uint64_t seed);

  std::vector<Request> initial_arrivals() override;
  std::vector<Request> on_outcome(const Outcome& outcome) override;

 private:
  Request next_request(Cycle issue_at);

  std::vector<RequestTemplate> mix_;
  std::vector<double> weights_;  ///< mix weights, validated once
  std::size_t num_clients_;
  std::size_t total_requests_;
  double think_ms_;
  double clock_ghz_;
  util::Prng prng_;
  std::size_t issued_ = 0;
};

/// Replays a recorded trace. CSV columns (header required):
///
///   arrival_ms,dataset,model,slo_ms[,class][,seed,fanout]
///
/// `model` is a Table III network family over the named dataset: "gcn",
/// "gsage" or "gsage-max" (gnn::layer_kind_name spellings); the optional
/// `class` column names the request class (SLO tier); the optional
/// seed,fanout column pair (always together, after class when both are
/// present) makes rows sampled mini-batch queries — `seed` is the seed
/// vertex (a blank cell or -1 keeps the row a full-graph request) and
/// `fanout` uses the '/'-separated parse_fanout spelling ("10/5"), which
/// survives inside a comma-delimited CSV cell. Rows may be unsorted; cells
/// may carry surrounding whitespace; numeric fields are parsed strictly
/// (trailing garbage is an error, not silently dropped); blank lines are
/// skipped; a header-only trace is an empty workload. Unknown
/// datasets/models throw CheckError naming the row.
class TraceWorkload final : public WorkloadSource {
 public:
  /// Reads and parses a trace file row by row (util::CsvStreamReader).
  /// `base` supplies everything the trace does not carry (config, dataflow,
  /// mode, weight seed).
  static TraceWorkload from_file(const std::string& path,
                                 const core::SimulationRequest& base, double clock_ghz);

  std::vector<Request> initial_arrivals() override;

  [[nodiscard]] std::size_t size() const { return arrivals_.size(); }

 private:
  std::vector<Request> arrivals_;
};

/// Streams a trace file row-by-row (util::CsvStreamReader): same CSV
/// schema and strict parsing as TraceWorkload, but rows must already be
/// sorted by arrival_ms (CheckError names the offending row otherwise) and
/// memory stays bounded by one reader chunk plus one pulled batch — a
/// million-request trace replays without ever materializing. The stream is
/// single-use: one serve run consumes it.
class StreamingTraceWorkload final : public StreamingWorkloadSource {
 public:
  StreamingTraceWorkload(const std::string& path, const core::SimulationRequest& base,
                         double clock_ghz, std::size_t chunk_bytes = 64 * 1024);

  std::size_t pull(std::size_t max, std::vector<Request>& out) override;

  /// Data rows parsed so far (excluding the header and blank lines).
  [[nodiscard]] std::size_t rows_streamed() const { return rows_streamed_; }
  /// The reader's buffer high-water mark (util::CsvStreamReader) — what the
  /// bounded-memory regression asserts on.
  [[nodiscard]] std::size_t peak_buffer_bytes() const { return reader_.peak_buffer_bytes(); }

 private:
  util::CsvStreamReader reader_;
  core::SimulationRequest base_;
  double clock_ghz_;
  bool has_class_ = false;
  bool has_sample_ = false;
  std::size_t row_index_ = 0;  ///< file row of the last reader row (header = 0)
  std::size_t rows_streamed_ = 0;
  double last_arrival_ms_ = 0.0;
};

/// Spec of a synthetic serving trace (bench/serve_scale and the streaming
/// regression tests): `num_requests` rows with Poisson inter-arrival gaps
/// at `rate_rps`, dataset/model drawn uniformly per row, an optional class
/// column, one fixed slo_ms. Deterministic in (spec, seed).
struct TraceSpec {
  std::size_t num_requests = 100'000;
  double rate_rps = 20'000.0;
  double clock_ghz = 1.0;
  std::uint64_t seed = 1;
  std::vector<std::string> datasets{"cora", "citeseer"};
  std::vector<std::string> models{"gcn", "gsage", "gsage-max"};
  /// Request-class column values (drawn uniformly); empty = no class column.
  std::vector<std::string> classes;
  /// slo_ms column value for every row; 0 = none.
  double slo_ms = 0.0;
  /// When positive, arrivals follow a sinusoidal diurnal profile of this
  /// period: the instantaneous rate is
  ///   rate_rps * (1 + diurnal_amplitude * sin(2*pi*t / period)) / (1 + diurnal_amplitude)
  /// realized by thinning a Poisson envelope at the peak rate, so the trace
  /// still holds exactly `num_requests` sorted rows. 0 = stationary.
  double diurnal_period_ms = 0.0;
  /// Peak-to-mean swing of the diurnal profile, in [0, 1]. 0 = flat.
  double diurnal_amplitude = 0.0;
  /// When non-empty, every row carries the seed,fanout column pair: the
  /// seed vertex is drawn uniformly in [0, num_nodes) of the row's dataset
  /// and the fanout cell is this spec (use the '/'-separated spelling,
  /// e.g. "10/5", so the cell survives CSV). Empty = full-graph rows.
  std::string sample_fanout;
};

/// Writes the trace to `path` row-by-row — generation is bounded-memory
/// too, so the generator scales to the same sizes the streaming replay
/// does. Rows come out sorted by arrival_ms (what StreamingTraceWorkload
/// requires). Returns the number of data rows written.
std::size_t write_synthetic_trace(const std::string& path, const TraceSpec& spec);

}  // namespace gnnerator::serve
