#include "serve/autoscale.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace gnnerator::serve {

AutoscalerOptions parse_autoscale_spec(std::string_view spec) {
  AutoscalerOptions options;
  const std::string_view trimmed = util::trim(spec);
  const std::size_t first = trimmed.find(':');
  GNNERATOR_CHECK_MSG(first != std::string_view::npos,
                      "autoscale spec '" << trimmed << "' must be 'min:max:target-p95-ms'");
  const std::size_t second = trimmed.find(':', first + 1);
  GNNERATOR_CHECK_MSG(second != std::string_view::npos,
                      "autoscale spec '" << trimmed << "' must be 'min:max:target-p95-ms'");
  const std::optional<std::uint64_t> min_devices =
      util::parse_uint(util::trim(trimmed.substr(0, first)));
  GNNERATOR_CHECK_MSG(min_devices.has_value() && *min_devices > 0,
                      "autoscale spec '" << trimmed << "': malformed min device count '"
                                         << util::trim(trimmed.substr(0, first)) << "'");
  const std::optional<std::uint64_t> max_devices =
      util::parse_uint(util::trim(trimmed.substr(first + 1, second - first - 1)));
  GNNERATOR_CHECK_MSG(max_devices.has_value(),
                      "autoscale spec '"
                          << trimmed << "': malformed max device count '"
                          << util::trim(trimmed.substr(first + 1, second - first - 1)) << "'");
  const std::string_view target = util::trim(trimmed.substr(second + 1));
  const std::optional<double> target_p95 = util::parse_double(target);
  GNNERATOR_CHECK_MSG(target_p95.has_value() && *target_p95 >= 0.0,
                      "autoscale spec '" << trimmed << "': malformed target p95 '" << target
                                         << "' (non-negative ms; 0 = depth-only)");
  options.min_devices = static_cast<std::size_t>(*min_devices);
  options.max_devices = static_cast<std::size_t>(*max_devices);
  GNNERATOR_CHECK_MSG(options.min_devices <= options.max_devices,
                      "autoscale spec '" << trimmed << "': min " << options.min_devices
                                         << " exceeds max " << options.max_devices);
  options.target_p95_ms = *target_p95;
  return options;
}

Autoscaler::Autoscaler(const AutoscalerOptions& options, double clock_ghz)
    : options_(options) {
  GNNERATOR_CHECK_MSG(clock_ghz > 0.0, "autoscaler needs a positive clock");
  GNNERATOR_CHECK_MSG(options_.min_devices > 0 && options_.min_devices <= options_.max_devices,
                      "autoscaler bounds [" << options_.min_devices << ", "
                                            << options_.max_devices << "] are invalid");
  GNNERATOR_CHECK_MSG(options_.interval_ms > 0.0, "autoscaler interval must be positive");
  GNNERATOR_CHECK_MSG(options_.window > 0, "autoscaler window must be positive");
  interval_ = std::max<Cycle>(1, ms_to_cycles(options_.interval_ms, clock_ghz));
  cooldown_ = ms_to_cycles(options_.cooldown_ms, clock_ghz);
  next_tick_ = interval_;
  window_.reserve(options_.window);
}

void Autoscaler::observe(double latency_ms) {
  if (window_.size() < options_.window) {
    window_.push_back(latency_ms);
    window_pos_ = window_.size() % options_.window;
    window_full_ = window_.size() == options_.window;
    return;
  }
  window_[window_pos_] = latency_ms;
  window_pos_ = (window_pos_ + 1) % options_.window;
}

double Autoscaler::rolling_p95() const {
  if (window_.empty()) {
    return 0.0;
  }
  std::vector<double> sorted(window_);
  std::sort(sorted.begin(), sorted.end());
  const std::size_t rank =
      std::min(sorted.size() - 1, static_cast<std::size_t>(0.95 * static_cast<double>(sorted.size())));
  return sorted[rank];
}

Autoscaler::Action Autoscaler::evaluate(Cycle now, std::size_t queue_depth,
                                        std::size_t active_devices) {
  // Advance the tick past `now` unconditionally: a missed interval (loop was
  // idle) does not entitle the policy to a burst of catch-up evaluations.
  while (next_tick_ <= now) {
    next_tick_ += interval_;
  }
  if (last_action_at_ != kNoDeadline && now < last_action_at_ + cooldown_) {
    return Action::kNone;
  }
  const double depth_per_device =
      static_cast<double>(queue_depth) /
      static_cast<double>(std::max<std::size_t>(1, active_devices));
  const double p95 = rolling_p95();
  const bool latency_hot =
      options_.target_p95_ms > 0.0 && !window_.empty() && p95 > options_.target_p95_ms;
  if (active_devices < options_.max_devices &&
      (depth_per_device >= options_.up_queue_per_device || latency_hot)) {
    last_action_at_ = now;
    return Action::kUp;
  }
  const bool latency_cool = options_.target_p95_ms <= 0.0 ||
                            p95 < options_.down_p95_margin * options_.target_p95_ms;
  if (active_devices > options_.min_devices &&
      depth_per_device <= options_.down_queue_per_device && latency_cool) {
    last_action_at_ = now;
    return Action::kDown;
  }
  return Action::kNone;
}

}  // namespace gnnerator::serve
