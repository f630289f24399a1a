// Minimal JSON document model for the observability layer: enough to
// write Chrome-trace files and stats dumps, and to parse them back for
// validation in tests and the CLI. Deliberately small — strict about
// structure, no streaming, no comments.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace pooch::obs::json {

class Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

class Value {
 public:
  Value() : v_(nullptr) {}
  Value(std::nullptr_t) : v_(nullptr) {}
  Value(bool b) : v_(b) {}
  Value(double d) : v_(d) {}
  Value(int i) : v_(static_cast<std::int64_t>(i)) {}
  Value(std::int64_t i) : v_(i) {}
  Value(std::uint64_t u) : v_(static_cast<std::int64_t>(u)) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(v_); }
  bool is_bool() const { return std::holds_alternative<bool>(v_); }
  bool is_string() const { return std::holds_alternative<std::string>(v_); }
  bool is_array() const { return std::holds_alternative<Array>(v_); }
  bool is_object() const { return std::holds_alternative<Object>(v_); }

  bool as_bool() const { return std::get<bool>(v_); }
  double as_double() const {
    if (const auto* i = std::get_if<std::int64_t>(&v_)) {
      return static_cast<double>(*i);
    }
    return std::get<double>(v_);
  }
  std::int64_t as_int() const {
    if (const auto* d = std::get_if<double>(&v_)) {
      return static_cast<std::int64_t>(*d);
    }
    return std::get<std::int64_t>(v_);
  }
  const std::string& as_string() const { return std::get<std::string>(v_); }
  const Array& as_array() const { return std::get<Array>(v_); }
  Array& as_array() { return std::get<Array>(v_); }
  const Object& as_object() const { return std::get<Object>(v_); }
  Object& as_object() { return std::get<Object>(v_); }

  /// Member lookup; nullptr when this is not an object or the key is
  /// absent. Chains safely: v.find("a") ? v.find("a")->find("b") : ...
  const Value* find(const std::string& key) const;

  /// Compact serialization (no whitespace).
  std::string dump() const;

 private:
  std::variant<std::nullptr_t, bool, double, std::int64_t, std::string,
               Array, Object>
      v_;
};

struct ParseResult {
  bool ok = false;
  Value value;
  std::string error;  // "offset N: message" when !ok
};

/// Strict recursive-descent parse of one JSON document (trailing
/// whitespace allowed, trailing garbage is an error).
ParseResult parse(std::string_view text);

/// Escape a string for embedding in a JSON document (no quotes added).
std::string escape(std::string_view s);

}  // namespace pooch::obs::json
