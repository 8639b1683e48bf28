// Minimal JSON parser, the read-side counterpart of obs/json.h.
//
// Hand-rolled for the same reasons the writer is: no third-party
// dependency, and a small surface tailored to what the scenario layer
// needs — parse a config document into a tree of JsonValue nodes and look
// fields up by name. Numbers are kept as doubles (plus the exact value of
// an integer literal in [-2^63, 2^64 - 1]), objects preserve insertion
// order so error messages and round-trip diagnostics stay stable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sorn {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  // A number's value; an integer literal too large for a double rounds.
  double as_double() const { return number_; }
  // True for an integer literal (no fraction or exponent) in
  // [-2^63, 2^64 - 1]: its exact value is kept. Any other number is not
  // an integer.
  bool is_integer() const { return has_int_; }
  // Sets *out to the exact integer and returns true when is_integer() and
  // the value fits T; returns false otherwise.
  template <typename T>
  bool get_integer(T* out) const {
    if (!has_int_) return false;
    if (int_negative_) {
      const auto v = static_cast<std::int64_t>(int_bits_);
      if (!std::in_range<T>(v)) return false;
      *out = static_cast<T>(v);
    } else {
      if (!std::in_range<T>(int_bits_)) return false;
      *out = static_cast<T>(int_bits_);
    }
    return true;
  }
  const std::string& as_string() const { return string_; }

  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& fields() const {
    return fields_;
  }
  // Object member by key; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;

  // ---- construction (parser + tests) ----
  static JsonValue null();
  static JsonValue boolean(bool v);
  static JsonValue number(double v);
  // An integer literal: `v` is its value as a double (so "-0" keeps its
  // sign), `exact` its exact value.
  static JsonValue integer(double v, std::int64_t exact);
  static JsonValue integer(double v, std::uint64_t exact);
  static JsonValue string(std::string v);
  static JsonValue array(std::vector<JsonValue> items);
  static JsonValue object(std::vector<std::pair<std::string, JsonValue>> f);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  bool has_int_ = false;
  bool int_negative_ = false;
  std::uint64_t int_bits_ = 0;  // two's complement when int_negative_
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> fields_;
};

// Parse one JSON document. On success returns true and fills *out; on
// failure returns false and *error names the position and problem.
// Trailing non-whitespace after the document is an error.
bool json_parse(std::string_view text, JsonValue* out, std::string* error);

}  // namespace sorn
