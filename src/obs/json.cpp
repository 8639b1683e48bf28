#include "obs/json.h"

#include <cmath>
#include <cstdio>

namespace sorn {

void json_escape(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
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
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void JsonWriter::element() {
  if (!first_.empty()) {
    if (pending_key_) {
      pending_key_ = false;
      return;  // the key already placed the comma
    }
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

JsonWriter& JsonWriter::begin_object() {
  element();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  element();
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  element();
  json_escape(out_, k);
  out_ += ':';
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  element();
  json_escape(out_, s);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  element();
  out_ += json_double(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  element();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  element();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  element();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  element();
  out_ += json;
  return *this;
}

}  // namespace sorn
