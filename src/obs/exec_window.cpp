#include "obs/exec_window.hpp"

#include <algorithm>

namespace gnnerator::obs {

ExecWindowLog::Id ExecWindowLog::intern(const std::string& plan_class,
                                        const std::string& device_class) {
  const auto [it, inserted] =
      ids_.try_emplace({plan_class, device_class}, static_cast<Id>(windows_.size()));
  if (inserted) {
    ExecWindow& w = windows_.emplace_back();
    w.plan_class = plan_class;
    w.device_class = device_class;
  }
  return it->second;
}

void ExecWindowLog::record(Id id, std::uint64_t cycles) {
  ExecWindow& w = windows_[id];
  if (w.observations == 0) {
    w.ewma_cycles = static_cast<double>(cycles);
    w.min_cycles = cycles;
    w.max_cycles = cycles;
    ++observed_;
  } else {
    w.ewma_cycles += alpha_ * (static_cast<double>(cycles) - w.ewma_cycles);
    w.min_cycles = std::min(w.min_cycles, cycles);
    w.max_cycles = std::max(w.max_cycles, cycles);
  }
  w.last_cycles = cycles;
  w.observations += 1;
  total_observations_ += 1;
}

std::vector<ExecWindow> ExecWindowLog::snapshot() const {
  std::vector<ExecWindow> out;
  out.reserve(observed_);
  for (const auto& [pair, id] : ids_) {
    if (windows_[id].observations > 0) {
      out.push_back(windows_[id]);
    }
  }
  return out;
}

}  // namespace gnnerator::obs
