#include "obs/exec_window.hpp"

#include <algorithm>

namespace gnnerator::obs {

void ExecWindowLog::record(const std::string& plan_class, const std::string& device_class,
                           std::uint64_t cycles) {
  auto [it, inserted] = windows_.try_emplace({plan_class, device_class});
  ExecWindow& w = it->second;
  if (inserted) {
    w.plan_class = plan_class;
    w.device_class = device_class;
    w.ewma_cycles = static_cast<double>(cycles);
    w.min_cycles = cycles;
    w.max_cycles = cycles;
  } else {
    w.ewma_cycles += kEwmaAlpha * (static_cast<double>(cycles) - w.ewma_cycles);
    w.min_cycles = std::min(w.min_cycles, cycles);
    w.max_cycles = std::max(w.max_cycles, cycles);
  }
  w.last_cycles = cycles;
  w.observations += 1;
  total_observations_ += 1;
}

std::vector<ExecWindow> ExecWindowLog::snapshot() const {
  std::vector<ExecWindow> out;
  out.reserve(windows_.size());
  for (const auto& [key, window] : windows_) {
    out.push_back(window);
  }
  return out;
}

}  // namespace gnnerator::obs
