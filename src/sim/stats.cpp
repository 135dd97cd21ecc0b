#include "sim/stats.hpp"

#include <sstream>

#include "util/units.hpp"

namespace gnnerator::sim {

void StatSet::add(const std::string& name, std::uint64_t delta) { counters_[name] += delta; }

std::uint64_t StatSet::get(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::string StatSet::to_string() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters_) {
    os << name << " = " << util::format_cycles(value) << '\n';
  }
  return os.str();
}

}  // namespace gnnerator::sim
