#include "obs/json_parse.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace sorn {

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : fields_)
    if (k == key) return &v;
  return nullptr;
}

JsonValue JsonValue::null() { return JsonValue(); }

JsonValue JsonValue::boolean(bool v) {
  JsonValue j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::number(double v) {
  JsonValue j;
  j.kind_ = Kind::kNumber;
  j.number_ = v;
  return j;
}

JsonValue JsonValue::integer(double v, std::int64_t exact) {
  JsonValue j = number(v);
  j.has_int_ = true;
  j.int_negative_ = exact < 0;
  j.int_bits_ = static_cast<std::uint64_t>(exact);
  return j;
}

JsonValue JsonValue::integer(double v, std::uint64_t exact) {
  JsonValue j = number(v);
  j.has_int_ = true;
  j.int_bits_ = exact;
  return j;
}

JsonValue JsonValue::string(std::string v) {
  JsonValue j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

JsonValue JsonValue::array(std::vector<JsonValue> items) {
  JsonValue j;
  j.kind_ = Kind::kArray;
  j.items_ = std::move(items);
  return j;
}

JsonValue JsonValue::object(
    std::vector<std::pair<std::string, JsonValue>> f) {
  JsonValue j;
  j.kind_ = Kind::kObject;
  j.fields_ = std::move(f);
  return j;
}

namespace {

// Recursive-descent parser over a string_view with line/column tracking
// for error messages.
class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool parse_document(JsonValue* out) {
    skip_ws();
    if (!parse_value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }

 private:
  bool parse_value(JsonValue* out, int depth = 0) {
    if (depth > 64) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"': {
        std::string s;
        if (!parse_string(&s)) return false;
        *out = JsonValue::string(std::move(s));
        return true;
      }
      case 't':
        if (!literal("true")) return false;
        *out = JsonValue::boolean(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        *out = JsonValue::boolean(false);
        return true;
      case 'n':
        if (!literal("null")) return false;
        *out = JsonValue::null();
        return true;
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue* out, int depth) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> fields;
    skip_ws();
    if (peek('}')) {
      *out = JsonValue::object(std::move(fields));
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      skip_ws();
      JsonValue v;
      if (!parse_value(&v, depth + 1)) return false;
      fields.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (peek(',')) continue;
      if (peek('}')) break;
      return fail("expected ',' or '}' in object");
    }
    *out = JsonValue::object(std::move(fields));
    return true;
  }

  bool parse_array(JsonValue* out, int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    skip_ws();
    if (peek(']')) {
      *out = JsonValue::array(std::move(items));
      return true;
    }
    for (;;) {
      skip_ws();
      JsonValue v;
      if (!parse_value(&v, depth + 1)) return false;
      items.push_back(std::move(v));
      skip_ws();
      if (peek(',')) continue;
      if (peek(']')) break;
      return fail("expected ',' or ']' in array");
    }
    *out = JsonValue::array(std::move(items));
    return true;
  }

  bool parse_string(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"')
      return fail("expected string");
    ++pos_;
    std::string s;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        *out = std::move(s);
        return true;
      }
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': s += '"'; break;
          case '\\': s += '\\'; break;
          case '/': s += '/'; break;
          case 'b': s += '\b'; break;
          case 'f': s += '\f'; break;
          case 'n': s += '\n'; break;
          case 'r': s += '\r'; break;
          case 't': s += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else
                return fail("bad \\u escape");
            }
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // needed for config files; a lone surrogate encodes as-is).
            if (code < 0x80) {
              s += static_cast<char>(code);
            } else if (code < 0x800) {
              s += static_cast<char>(0xC0 | (code >> 6));
              s += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              s += static_cast<char>(0xE0 | (code >> 12));
              s += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              s += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return fail("unknown escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      s += c;
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(
               static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-'))
      return fail("expected a value");
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(
                 static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      while (pos_ < text_.size() && std::isdigit(
                 static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("malformed number");
    *out = JsonValue::number(d);
    // An integer literal beyond [-2^63, 2^64 - 1] (ERANGE) stays a plain
    // number, so integer fields reject it instead of reading a clamp.
    if (integral) {
      errno = 0;
      if (token[0] == '-') {
        const long long v = std::strtoll(token.c_str(), nullptr, 10);
        if (errno == 0) *out = JsonValue::integer(d, static_cast<std::int64_t>(v));
      } else {
        const unsigned long long v = std::strtoull(token.c_str(), nullptr, 10);
        if (errno == 0) *out = JsonValue::integer(d, static_cast<std::uint64_t>(v));
      }
    }
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word)
      return fail("expected a value");
    pos_ += word.size();
    return true;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool peek(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool expect(char c) {
    if (peek(c)) return true;
    std::string msg = "expected '";
    msg += c;
    msg += '\'';
    return fail(msg.c_str());
  }

  bool fail(const char* msg) {
    if (error_ != nullptr) {
      std::size_t line = 1;
      std::size_t col = 1;
      for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
        if (text_[i] == '\n') {
          ++line;
          col = 1;
        } else {
          ++col;
        }
      }
      *error_ = "JSON parse error at line " + std::to_string(line) +
                ", column " + std::to_string(col) + ": " + msg;
    }
    return false;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

bool json_parse(std::string_view text, JsonValue* out, std::string* error) {
  JsonValue v;
  Parser p(text, error);
  if (!p.parse_document(&v)) return false;
  *out = std::move(v);
  return true;
}

}  // namespace sorn
