#include "util/units.hpp"

#include <array>
#include <iomanip>
#include <sstream>

namespace gnnerator::util {

std::string format_bytes(std::uint64_t bytes) {
  constexpr std::array<const char*, 4> kSuffix{"B", "KiB", "MiB", "GiB"};
  double value = static_cast<double>(bytes);
  std::size_t level = 0;
  while (value >= 1024.0 && level + 1 < kSuffix.size()) {
    value /= 1024.0;
    ++level;
  }
  std::ostringstream os;
  if (level == 0) {
    os << bytes << " B";
  } else {
    os << std::fixed << std::setprecision(1) << value << ' ' << kSuffix[level];
  }
  return os.str();
}

std::string format_cycles(std::uint64_t cycles) {
  const std::string raw = std::to_string(cycles);
  std::string out;
  out.reserve(raw.size() + raw.size() / 3);
  std::size_t lead = raw.size() % 3;
  if (lead == 0) {
    lead = 3;
  }
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) {
      out += ',';
    }
    out += raw[i];
  }
  return out;
}

}  // namespace gnnerator::util
