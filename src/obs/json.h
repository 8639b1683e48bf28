// Minimal deterministic JSON construction for telemetry export.
//
// Hand-rolled on purpose: no third-party dependency, and byte-stable
// output — keys appear in emission order, doubles go through one
// round-trip format ("%.17g", non-finite -> null) — so two runs with the
// same seed and config produce byte-identical files. The determinism
// regression test (tests/obs/determinism_test.cpp) locks this in.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sorn {

// Append `s` to `out` as a quoted JSON string literal, escaping quotes,
// backslashes and control characters.
void json_escape(std::string& out, std::string_view s);

// Round-trip double formatting; NaN/inf become "null" (JSON has no
// non-finite numbers).
std::string json_double(double v);

// Incremental writer for nested objects/arrays. Commas and the
// first-element state are tracked per nesting level; the caller supplies
// structure in the order it should appear.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(const std::string& s) {
    return value(std::string_view(s));
  }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::int32_t v) {
    return value(static_cast<std::int64_t>(v));
  }
  JsonWriter& value(bool v);
  // An already-serialized JSON value, appended verbatim.
  JsonWriter& raw(std::string_view json);

  template <typename T>
  JsonWriter& field(std::string_view k, T v) {
    key(k);
    return value(v);
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void element();  // comma bookkeeping before a value or key

  std::string out_;
  std::vector<bool> first_;  // per nesting level: next element is first
  bool pending_key_ = false;
};

}  // namespace sorn
