#pragma once

/// \file json.hpp
/// The hand-rolled JSON subset shared by the declarative spec grammars
/// (runtime::StackSpec, scenario::ScenarioSpec) and the trace comparator:
/// objects, arrays, strings, numbers and booleans — no null, no dependency.
/// Every unsupported
/// construct fails with a position-stamped error ("<context> error at offset
/// N: ...") instead of parsing loosely, and every Value remembers where it
/// started so key-level errors point at the offending source text.
///
/// The emission half (format_number, quote; util::JsonWriter::Inline writes
/// spec objects with them) guarantees exact round trips: format_number prints
/// the shortest decimal form that parses back to the same double, so
/// parse(to_json(x)) == x for every valid spec.

#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/assert.hpp"

namespace hybrimoe::util::json {

/// Raise a position-stamped std::invalid_argument: "<context> error at
/// offset <offset>: <message>".
[[noreturn]] inline void error(const char* context, std::size_t offset,
                               const std::string& message) {
  std::ostringstream os;
  os << context << " error at offset " << offset << ": " << message;
  throw std::invalid_argument(os.str());
}

struct Value;
/// Insertion-ordered so error messages point at the offending source key.
using Object = std::vector<std::pair<std::string, Value>>;
/// Element-ordered, as written in the source text.
using Array = std::vector<Value>;

/// One parsed JSON value with its source position and the parsing context
/// (the grammar name used in error messages).
struct Value {
  std::variant<std::string, double, bool, Object, Array> value;
  std::size_t offset = 0;      ///< where this value started, for error messages
  const char* context = "spec";  ///< grammar name for error(), set by Parser

  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(value);
  }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(value); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(value); }
};

/// Raise at a value's own position, in its own context.
[[noreturn]] inline void error_at(const Value& v, const std::string& message) {
  error(v.context, v.offset, message);
}

/// Recursive-descent parser over the subset. `context` names the grammar in
/// every error ("stack spec", "scenario spec", ...).
class Parser {
 public:
  /// Bind the parser to its input text and error context.
  Parser(std::string_view text, const char* context)
      : text_(text), context_(context) {}

  /// Parse the whole input as one object; trailing characters are an error.
  [[nodiscard]] Value parse_document() {
    skip_whitespace();
    if (at_end() || peek() != '{')
      fail(pos_, std::string("a ") + context_ +
                     " must be a JSON object starting with '{'");
    Value value = parse_value();
    skip_whitespace();
    if (!at_end()) fail(pos_, std::string("trailing characters after the ") +
                                  context_ + " object");
    return value;
  }

 private:
  [[noreturn]] void fail(std::size_t offset, const std::string& message) const {
    error(context_, offset, message);
  }
  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  void skip_whitespace() {
    while (!at_end() &&
           (peek() == ' ' || peek() == '\t' || peek() == '\n' || peek() == '\r'))
      ++pos_;
  }

  void expect(char c, const char* what) {
    if (at_end() || peek() != c) fail(pos_, std::string("expected ") + what);
    ++pos_;
  }

  [[nodiscard]] Value parse_value() {
    skip_whitespace();
    if (at_end()) fail(pos_, "unexpected end of input");
    const std::size_t start = pos_;
    const char c = peek();
    if (c == '{') return {parse_object(), start, context_};
    if (c == '[') return {parse_array(), start, context_};
    if (c == '"') return {parse_string(), start, context_};
    if (c == 't' || c == 'f') return {parse_bool(), start, context_};
    if (c == '-' || (c >= '0' && c <= '9')) return {parse_number(), start, context_};
    fail(pos_, std::string("unexpected character '") + c +
                   "' (expected an object, array, string, number or boolean)");
  }

  [[nodiscard]] Array parse_array() {
    expect('[', "'['");
    Array array;
    skip_whitespace();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      array.push_back(parse_value());
      skip_whitespace();
      if (at_end()) fail(pos_, "unterminated array (missing ']')");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']', "',' or ']'");
      return array;
    }
  }

  [[nodiscard]] Object parse_object() {
    expect('{', "'{'");
    Object object;
    skip_whitespace();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      skip_whitespace();
      const std::size_t key_offset = pos_;
      if (at_end() || peek() != '"') fail(pos_, "expected a quoted key");
      std::string key = parse_string();
      for (const auto& [existing, value] : object)
        if (existing == key) fail(key_offset, "duplicate key '" + key + "'");
      skip_whitespace();
      expect(':', "':' after key");
      object.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      if (at_end()) fail(pos_, "unterminated object (missing '}')");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}', "',' or '}'");
      return object;
    }
  }

  [[nodiscard]] std::string parse_string() {
    expect('"', "'\"'");
    std::string out;
    while (true) {
      if (at_end()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (at_end()) fail(pos_, "unterminated escape");
        const char e = text_[pos_++];
        if (e == '"' || e == '\\' || e == '/') {
          out.push_back(e);
        } else {
          fail(pos_ - 1, std::string("unsupported escape '\\") + e + "'");
        }
        continue;
      }
      out.push_back(c);
    }
  }

  [[nodiscard]] bool parse_bool() {
    if (text_.substr(pos_, 4) == "true") {
      pos_ += 4;
      return true;
    }
    if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
      return false;
    }
    fail(pos_, "expected 'true' or 'false'");
  }

  [[nodiscard]] double parse_number() {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    auto digits = [&] {
      const std::size_t before = pos_;
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
      return pos_ > before;
    };
    if (!digits()) fail(pos_, "malformed number");
    if (!at_end() && peek() == '.') {
      ++pos_;
      if (!digits()) fail(pos_, "malformed number (digits required after '.')");
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (!digits()) fail(pos_, "malformed exponent");
    }
    const std::string token(text_.substr(start, pos_ - start));
    const double value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value)) fail(start, "number '" + token + "' is out of range");
    return value;
  }

  std::string_view text_;
  const char* context_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Typed accessors: each raises at the value's position in its context.
// ---------------------------------------------------------------------------

/// The value as a string; raises "'<key>' must be a string" otherwise.
[[nodiscard]] inline const std::string& as_string(const Value& v,
                                                  const std::string& key) {
  if (!v.is_string()) error_at(v, "'" + key + "' must be a string");
  return std::get<std::string>(v.value);
}

/// The value as a number; raises "'<key>' must be a number" otherwise.
[[nodiscard]] inline double as_number(const Value& v, const std::string& key) {
  if (!std::holds_alternative<double>(v.value))
    error_at(v, "'" + key + "' must be a number");
  return std::get<double>(v.value);
}

/// The value as a boolean; raises "'<key>' must be true or false" otherwise.
[[nodiscard]] inline bool as_bool(const Value& v, const std::string& key) {
  if (!std::holds_alternative<bool>(v.value))
    error_at(v, "'" + key + "' must be true or false");
  return std::get<bool>(v.value);
}

/// The value as an array; raises "'<key>' must be an array" otherwise.
[[nodiscard]] inline const Array& as_array(const Value& v, const std::string& key) {
  if (!v.is_array()) error_at(v, "'" + key + "' must be an array");
  return std::get<Array>(v.value);
}

/// The value as a non-negative integer count.
[[nodiscard]] inline std::size_t as_count(const Value& v, const std::string& key) {
  const double d = as_number(v, key);
  if (d < 0.0 || d != std::floor(d) || d > 9e15)
    error_at(v, "'" + key + "' must be a non-negative integer");
  return static_cast<std::size_t>(d);
}

// ---------------------------------------------------------------------------
// Emission.
// ---------------------------------------------------------------------------

/// Quote + escape a string for the subset ("\\" and "\"").
[[nodiscard]] inline std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

/// Shortest decimal form that parses back to the same double, so the JSON
/// round trip is exact without printing 17 digits for 0.25 (and integral
/// values like 120 stay "120", not "1.2e+02").
[[nodiscard]] inline std::string format_number(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::ostringstream os;
    os << std::setprecision(15) << std::fixed << v;
    std::string s = os.str();
    s.erase(s.find('.'));  // integral: drop the fractional zeros
    if (std::strtod(s.c_str(), nullptr) == v) return s;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::ostringstream os;
    os << std::setprecision(precision) << v;
    if (std::strtod(os.str().c_str(), nullptr) == v) return os.str();
  }
  HYBRIMOE_ASSERT(false, "a double must round-trip at 17 significant digits");
}

}  // namespace hybrimoe::util::json
