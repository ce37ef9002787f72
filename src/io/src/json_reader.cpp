#include "rlc/io/json_reader.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace rlc::io {

namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::runtime_error("json parse error at byte " + std::to_string(pos) +
                           ": " + what);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw std::runtime_error("json: not a bool");
  return bool_;
}
double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) throw std::runtime_error("json: not a number");
  return number_;
}
const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) throw std::runtime_error("json: not a string");
  return string_;
}
const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::kArray) throw std::runtime_error("json: not an array");
  return items_;
}
const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (kind_ != Kind::kObject) throw std::runtime_error("json: not an object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v && v->kind_ == Kind::kNumber ? v->number_ : fallback;
}
long long JsonValue::int_or(std::string_view key, long long fallback) const {
  // [-2^63, 2^63) truncates into a long long; NaN fails both comparisons.
  constexpr double kLimit = 9223372036854775808.0;
  const JsonValue* v = find(key);
  if (!v || v->kind_ != Kind::kNumber ||
      !(v->number_ >= -kLimit && v->number_ < kLimit)) {
    return fallback;
  }
  return static_cast<long long>(v->number_);
}
bool JsonValue::bool_or(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  return v && v->kind_ == Kind::kBool ? v->bool_ : fallback;
}
std::string JsonValue::string_or(std::string_view key,
                                 std::string fallback) const {
  const JsonValue* v = find(key);
  return v && v->kind_ == Kind::kString ? v->string_ : std::move(fallback);
}

std::optional<int> exact_int(double d) {
  constexpr double kMin = static_cast<double>(std::numeric_limits<int>::min());
  constexpr double kMax = static_cast<double>(std::numeric_limits<int>::max());
  // NaN fails both comparisons and is rejected with the out-of-range values.
  if (!(d >= kMin && d <= kMax) || std::trunc(d) != d) return std::nullopt;
  return static_cast<int>(d);
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing characters");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n]) ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    JsonValue v;
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"':
        v.kind_ = JsonValue::Kind::kString;
        v.string_ = parse_string();
        return v;
      case 't':
        if (!consume_literal("true")) fail(pos_, "bad literal");
        v.kind_ = JsonValue::Kind::kBool;
        v.bool_ = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail(pos_, "bad literal");
        v.kind_ = JsonValue::Kind::kBool;
        v.bool_ = false;
        return v;
      case 'n':
        if (!consume_literal("null")) fail(pos_, "bad literal");
        v.kind_ = JsonValue::Kind::kNull;
        return v;
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members_.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind_ = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<unsigned>(c - 'A' + 10);
      else fail(pos_ - 1, "bad hex digit in \\u escape");
    }
    return cp;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail(pos_ - 1, "raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "truncated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':  out += '"';  break;
        case '\\': out += '\\'; break;
        case '/':  out += '/';  break;
        case 'b':  out += '\b'; break;
        case 'f':  out += '\f'; break;
        case 'n':  out += '\n'; break;
        case 'r':  out += '\r'; break;
        case 't':  out += '\t'; break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: require a following \uDC00-\uDFFF low half.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail(pos_, "lone high surrogate");
            }
            pos_ += 2;
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail(pos_, "bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail(pos_, "lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          fail(pos_ - 1, "unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail(start, "expected a value");
    JsonValue out;
    out.kind_ = JsonValue::Kind::kNumber;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const std::from_chars_result r = std::from_chars(first, last, out.number_);
    if (r.ec == std::errc() && r.ptr == last) return out;
    // Refused, partial or out of range: strtod decides, on a terminated
    // copy of the token.
    const std::string tok(first, last);
    char* end = nullptr;
    out.number_ = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) fail(start, "malformed number");
    return out;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

JsonValue parse_json(const std::string& text) {
  return Parser(text).parse_document();
}

JsonValue parse_json_file(const std::string& path) {
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  if (!fp) throw std::runtime_error("json: cannot read " + path);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, fp)) > 0) text.append(buf, n);
  std::fclose(fp);
  return parse_json(text);
}

}  // namespace rlc::io
