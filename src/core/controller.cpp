#include "core/controller.hpp"

#include <sstream>

namespace gnnerator::core {

std::string GnneratorController::pending_summary(std::size_t max_items) const {
  const auto pending = board_.pending_names();
  std::ostringstream os;
  os << pending.size() << " pending tokens";
  if (!pending.empty()) {
    os << ':';
    for (std::size_t i = 0; i < pending.size() && i < max_items; ++i) {
      os << ' ' << pending[i];
    }
    if (pending.size() > max_items) {
      os << " ...";
    }
  }
  return os.str();
}

}  // namespace gnnerator::core
