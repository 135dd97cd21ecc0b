#include "serve/faults.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace gnnerator::serve {

namespace {

/// "500ms" / "2.5s" / "750us" / bare "500" (ms) -> milliseconds. Strict:
/// the numeric part goes through util::parse_double whole.
std::optional<double> parse_time_ms(std::string_view text) {
  text = util::trim(text);
  double unit_ms = 1.0;
  if (text.ends_with("us")) {
    unit_ms = 1e-3;
    text.remove_suffix(2);
  } else if (text.ends_with("ms")) {
    text.remove_suffix(2);
  } else if (text.ends_with("s")) {
    unit_ms = 1e3;
    text.remove_suffix(1);
  }
  const std::optional<double> value = util::parse_double(text);
  if (!value.has_value() || !std::isfinite(*value) || *value < 0.0) {
    return std::nullopt;
  }
  return *value * unit_ms;
}

}  // namespace

FaultPlan parse_fault_plan(std::string_view spec, double clock_ghz) {
  GNNERATOR_CHECK_MSG(clock_ghz > 0.0, "fault plan needs a positive clock");
  FaultPlan plan;
  std::size_t start = 0;
  std::size_t element_index = 0;
  while (start <= spec.size()) {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string_view::npos) {
      comma = spec.size();
    }
    const std::string_view raw = spec.substr(start, comma - start);
    const std::string_view element = util::trim(raw);
    // Name the token and its position in every error, so a long plan's bad
    // event is findable without counting commas.
    const std::size_t offset =
        start + static_cast<std::size_t>(element.data() - raw.data());
    start = comma + 1;
    if (element.empty()) {
      continue;
    }
    std::ostringstream ctx_os;
    ctx_os << "fault spec element " << element_index << " ('" << element << "') at offset "
           << offset << ": ";
    const std::string ctx = ctx_os.str();

    const std::size_t at_pos = element.find('@');
    GNNERATOR_CHECK_MSG(at_pos != std::string_view::npos && at_pos > 0,
                        ctx << "expected '<kind>@<time>:dev<i>'");
    const std::string_view kind_name = util::trim(element.substr(0, at_pos));
    FaultEvent event;
    if (kind_name == "crash") {
      event.kind = FaultKind::kCrash;
    } else if (kind_name == "recover") {
      event.kind = FaultKind::kRecover;
    } else if (kind_name == "slow") {
      event.kind = FaultKind::kSlow;
    } else if (kind_name == "reclass") {
      event.kind = FaultKind::kReclass;
    } else {
      GNNERATOR_CHECK_MSG(false, ctx << "unknown fault kind '" << kind_name
                                     << "' (crash, recover, slow, reclass)");
    }

    const std::string_view rest = element.substr(at_pos + 1);
    const std::size_t colon = rest.find(':');
    GNNERATOR_CHECK_MSG(colon != std::string_view::npos,
                        ctx << "expected ':dev<i>' after the time");
    const std::optional<double> time_ms = parse_time_ms(rest.substr(0, colon));
    GNNERATOR_CHECK_MSG(time_ms.has_value(),
                        ctx << "malformed time '" << util::trim(rest.substr(0, colon))
                            << "' (finite non-negative number, optional us/ms/s unit)");
    GNNERATOR_CHECK_MSG(fits_cycles(*time_ms, clock_ghz),
                        ctx << "time '" << util::trim(rest.substr(0, colon))
                            << "' is past the range of the cycle clock");
    event.at = ms_to_cycles(*time_ms, clock_ghz);

    std::string_view target = util::trim(rest.substr(colon + 1));
    GNNERATOR_CHECK_MSG(target.starts_with("dev"),
                        ctx << "target '" << target << "' must be 'dev<i>'");
    target.remove_prefix(3);
    std::string_view index_part = target;
    if (event.kind == FaultKind::kSlow) {
      const std::size_t x = target.find('x');
      GNNERATOR_CHECK_MSG(x != std::string_view::npos,
                          ctx << "slow needs a 'x<factor>' suffix (e.g. dev0x0.5)");
      index_part = target.substr(0, x);
      const std::optional<double> factor = util::parse_double(target.substr(x + 1));
      GNNERATOR_CHECK_MSG(
          factor.has_value() && std::isfinite(*factor) && *factor >= kMinSlowFactor,
          ctx << "malformed slow factor '" << target.substr(x + 1)
              << "' (must be a finite number >= " << kMinSlowFactor << ")");
      event.factor = *factor;
    } else if (event.kind == FaultKind::kReclass) {
      const std::size_t eq = target.find('=');
      GNNERATOR_CHECK_MSG(eq != std::string_view::npos,
                          ctx << "reclass needs a '=<class>' suffix (e.g. dev1=nextgen)");
      index_part = target.substr(0, eq);
      event.klass = std::string(util::trim(target.substr(eq + 1)));
      GNNERATOR_CHECK_MSG(!event.klass.empty(), ctx << "reclass is missing a class name");
    }
    const std::optional<std::uint64_t> device = util::parse_uint(index_part);
    GNNERATOR_CHECK_MSG(device.has_value(),
                        ctx << "malformed device index '" << index_part << "'");
    event.device = static_cast<std::size_t>(*device);
    plan.events.push_back(std::move(event));
    ++element_index;
  }
  GNNERATOR_CHECK_MSG(!plan.events.empty(), "empty fault plan spec '" << spec << "'");
  // Spec order is the tie-break at equal cycles — a stable sort keeps it.
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return plan;
}

}  // namespace gnnerator::serve
