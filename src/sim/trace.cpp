#include "sim/trace.hpp"

#include <sstream>

namespace gnnerator::sim {

void Tracer::enable(std::size_t max_events) {
  enabled_ = true;
  max_events_ = max_events;
  dropped_ = 0;
  events_.reserve(std::min<std::size_t>(max_events, 4096));
}

void Tracer::emit(Cycle cycle, std::string_view component, std::string_view what) {
  if (!enabled_) {
    return;
  }
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(TraceEvent{cycle, std::string(component), std::string(what)});
}

std::string Tracer::to_string() const {
  std::ostringstream os;
  for (const TraceEvent& e : events_) {
    os << e.cycle << ' ' << e.component << ": " << e.what << '\n';
  }
  if (dropped_ > 0) {
    os << "[truncated: " << dropped_ << " events dropped at max_events=" << max_events_
       << "]\n";
  }
  return os.str();
}

}  // namespace gnnerator::sim
