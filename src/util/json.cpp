#include "util/json.hpp"

#include <charconv>
#include <cmath>

namespace gnnerator::util {

void json_escape_to(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (u < 0x20) {
          out += "\\u00";
          out.push_back(kHex[(u >> 4) & 0xf]);
          out.push_back(kHex[u & 0xf]);
        } else {
          out.push_back(c);
        }
    }
  }
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  // Shortest round-trip rendering; to_chars is locale-free and
  // deterministic, which the byte-identical trace exports rely on.
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, ptr);
}

std::string json_number(std::uint64_t value) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, ptr);
}

std::string json_number(std::int64_t value) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, ptr);
}

void JsonWriter::newline_indent() {
  if (indent_ <= 0) {
    return;
  }
  out_.put('\n');
  const std::size_t depth = has_element_.size();
  for (std::size_t i = 0; i < depth * static_cast<std::size_t>(indent_); ++i) {
    out_.put(' ');
  }
}

void JsonWriter::before_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) {
      out_.put(',');
    }
    has_element_.back() = true;
    newline_indent();
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  out_.put('{');
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  const bool had = !has_element_.empty() && has_element_.back();
  if (!has_element_.empty()) {
    has_element_.pop_back();
  }
  if (had) {
    newline_indent();
  }
  out_.put('}');
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  out_.put('[');
  has_element_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  const bool had = !has_element_.empty() && has_element_.back();
  if (!has_element_.empty()) {
    has_element_.pop_back();
  }
  if (had) {
    newline_indent();
  }
  out_.put(']');
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  before_value();
  std::string escaped;
  escaped.reserve(name.size() + 2);
  json_escape_to(escaped, name);
  out_.put('"');
  out_.write(escaped.data(), static_cast<std::streamsize>(escaped.size()));
  out_.put('"');
  out_.put(':');
  if (indent_ > 0) {
    out_.put(' ');
  }
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  before_value();
  std::string escaped;
  escaped.reserve(s.size() + 2);
  json_escape_to(escaped, s);
  out_.put('"');
  out_.write(escaped.data(), static_cast<std::streamsize>(escaped.size()));
  out_.put('"');
  return *this;
}

JsonWriter& JsonWriter::value(double v) { return raw_value(json_number(v)); }

JsonWriter& JsonWriter::value(std::uint64_t v) { return raw_value(json_number(v)); }

JsonWriter& JsonWriter::value(std::int64_t v) { return raw_value(json_number(v)); }

JsonWriter& JsonWriter::value(bool v) { return raw_value(v ? "true" : "false"); }


JsonWriter& JsonWriter::raw_value(std::string_view json) {
  before_value();
  out_.write(json.data(), static_cast<std::streamsize>(json.size()));
  return *this;
}

}  // namespace gnnerator::util
