#include "serve/fleet.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace gnnerator::serve {

std::optional<DeviceClass> find_device_class(std::string_view name) {
  DeviceClass klass;
  const core::AcceleratorConfig base = core::AcceleratorConfig::table4();
  if (name == "baseline") {
    klass.config = base;
  } else if (name == "2x-graph-mem") {
    klass.config = base.with_double_graph_memory();
  } else if (name == "2x-dense") {
    klass.config = base.with_double_dense_compute();
  } else if (name == "2x-bw") {
    klass.config = base.with_double_bandwidth();
  } else if (name == "nextgen") {
    klass.config =
        base.with_double_graph_memory().with_double_dense_compute().with_double_bandwidth();
  } else {
    return std::nullopt;
  }
  klass.name = std::string(name);
  return klass;
}

std::vector<std::string> device_class_names() {
  return {"baseline", "2x-graph-mem", "2x-dense", "2x-bw", "nextgen"};
}

std::vector<DeviceClass> parse_fleet_spec(std::string_view spec) {
  std::vector<DeviceClass> fleet;
  const std::vector<util::CountedName> entries = util::parse_count_list(spec);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const util::CountedName& entry = entries[i];
    std::optional<DeviceClass> klass = find_device_class(entry.name);
    if (!klass.has_value()) {
      std::string known;
      for (const std::string& name : device_class_names()) {
        known += known.empty() ? name : ", " + name;
      }
      GNNERATOR_CHECK_MSG(false, "fleet spec element " << i << ": unknown device class '"
                                                       << entry.name << "' in '" << spec
                                                       << "' (known: " << known << ")");
    }
    klass->count = entry.count;
    fleet.push_back(std::move(*klass));
  }
  return fleet;
}

std::vector<RequestClass> parse_class_spec(std::string_view spec) {
  std::vector<RequestClass> classes;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t comma = spec.find(',', start);
    if (comma == std::string_view::npos) {
      comma = spec.size();
    }
    const std::string_view element = util::trim(spec.substr(start, comma - start));
    start = comma + 1;
    if (element.empty()) {
      continue;
    }
    // name[:slo_ms[:weight[:priority]]]
    std::vector<std::string_view> fields;
    std::size_t field_start = 0;
    while (field_start <= element.size()) {
      std::size_t colon = element.find(':', field_start);
      if (colon == std::string_view::npos) {
        colon = element.size();
      }
      fields.push_back(util::trim(element.substr(field_start, colon - field_start)));
      field_start = colon + 1;
    }
    GNNERATOR_CHECK_MSG(fields.size() <= 4,
                        "request class '" << element << "' has more than 4 fields");
    RequestClass klass;
    klass.name = std::string(fields[0]);
    GNNERATOR_CHECK_MSG(!klass.name.empty(), "request class '" << element << "' needs a name");
    for (const RequestClass& existing : classes) {
      GNNERATOR_CHECK_MSG(existing.name != klass.name,
                          "duplicate request class '" << klass.name << "'");
    }
    if (fields.size() > 1 && !fields[1].empty()) {
      const std::optional<double> slo = util::parse_double(fields[1]);
      GNNERATOR_CHECK_MSG(slo.has_value() && std::isfinite(*slo),
                          "request class '" << element << "': malformed slo_ms");
      klass.slo_ms = *slo;
    }
    if (fields.size() > 2 && !fields[2].empty()) {
      const std::optional<double> weight = util::parse_double(fields[2]);
      GNNERATOR_CHECK_MSG(weight.has_value() && std::isfinite(*weight) && *weight > 0.0,
                          "request class '" << element
                                            << "': weight must be a finite positive number");
      klass.weight = *weight;
    }
    if (fields.size() > 3 && !fields[3].empty()) {
      const std::optional<std::uint64_t> priority = util::parse_uint(fields[3]);
      GNNERATOR_CHECK_MSG(priority.has_value() &&
                              *priority <= std::numeric_limits<std::uint32_t>::max(),
                          "request class '" << element << "': malformed priority");
      klass.priority = static_cast<std::uint32_t>(*priority);
    }
    classes.push_back(std::move(klass));
  }
  GNNERATOR_CHECK_MSG(!classes.empty(), "empty request class spec '" << spec << "'");
  return classes;
}

}  // namespace gnnerator::serve
