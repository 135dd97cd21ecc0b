#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gnnerator::sim {

/// Named monotonically-increasing counters: the reporting surface of a run
/// (`ExecutionResult::stats`). Hardware models do not bump it on their hot
/// path; they keep their counters as fields (`Counters`) and each exports
/// them by name once, when the run ends. Counter reads on a missing name
/// return 0, so report code never has to guard.
class StatSet {
 public:
  void add(const std::string& name, std::uint64_t delta = 1);

  [[nodiscard]] std::uint64_t get(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const { return counters_; }

  /// Multi-line "name = value" rendering, sorted by name.
  [[nodiscard]] std::string to_string() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
};

/// A hardware model's counters as fields, indexed by its enum `Key` (whose
/// last enumerator is `kCount`): a bump is an add and a flag store, with no
/// name, lookup or allocation. Every counter has a touched flag that any
/// `add` sets, a zero delta included, so `export_to` writes exactly the
/// names a StatSet bumped at the same points would hold.
template <typename Key>
class Counters {
 public:
  static constexpr std::size_t kSize = static_cast<std::size_t>(Key::kCount);

  void add(Key key, std::uint64_t delta = 1) {
    const auto i = static_cast<std::size_t>(key);
    values_[i] += delta;
    touched_[i] = true;
  }

  [[nodiscard]] std::uint64_t get(Key key) const {
    return values_[static_cast<std::size_t>(key)];
  }

  /// Adds each touched counter to `out` as `<prefix><names[key]>`. `names`
  /// is indexed by `Key`; an array of any other length does not compile.
  void export_to(StatSet& out, std::string_view prefix,
                 std::span<const std::string_view, kSize> names) const {
    std::string name(prefix);
    for (std::size_t i = 0; i < kSize; ++i) {
      if (touched_[i]) {
        name.resize(prefix.size());
        name.append(names[i]);
        out.add(name, values_[i]);
      }
    }
  }

 private:
  std::array<std::uint64_t, kSize> values_{};
  std::array<bool, kSize> touched_{};
};

}  // namespace gnnerator::sim
