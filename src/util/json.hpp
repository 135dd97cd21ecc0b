#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace gnnerator::util {

/// Appends `s` JSON-escaped (RFC 8259: quote, backslash, and control
/// characters as \uXXXX) to `out`, without surrounding quotes.
void json_escape_to(std::string& out, std::string_view s);

/// Deterministic JSON number rendering: shortest round-trip form via
/// std::to_chars ("5" for 5.0, no locale, no precision surprises). Non-finite
/// values render as "null" — bare inf/nan is not valid JSON.
[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_number(std::uint64_t value);
[[nodiscard]] std::string json_number(std::int64_t value);

/// Minimal streaming JSON writer: nesting, key/value separation and commas
/// handled; strings escaped; numbers rendered deterministically. Shared by
/// the bench harness's JsonReport and the Chrome-trace exporter so the repo
/// has exactly one JSON emitter. `indent` > 0 pretty-prints (that many
/// spaces per level); 0 emits compact single-line output.
///
/// Usage: w.begin_object().key("a").value(1.0).end_object(). The writer does
/// not validate nesting beyond what the comma logic needs — callers are
/// expected to emit well-formed structures (the tests hold them to it).
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out, int indent = 0) : out_(out), indent_(indent) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint32_t v) { return value(static_cast<std::uint64_t>(v)); }
  JsonWriter& value(std::int32_t v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  /// Pre-rendered JSON (a number formatted elsewhere, a nested document).
  JsonWriter& raw_value(std::string_view json);

  /// key + value in one call.
  template <typename T>
  JsonWriter& field(std::string_view name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }

 private:
  void before_value();
  void newline_indent();

  std::ostream& out_;
  int indent_ = 0;
  /// One frame per open container: whether it has emitted an element yet.
  std::vector<bool> has_element_;
  /// A key was just written; the next value is its payload (no comma).
  bool after_key_ = false;
};

}  // namespace gnnerator::util
