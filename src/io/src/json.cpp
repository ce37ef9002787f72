#include "rlc/io/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace rlc::io {

namespace {

void append_escaped(std::string& out, std::string_view v) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending unescaped bytes
  for (std::size_t i = 0; i < v.size(); ++i) {
    const auto c = static_cast<unsigned char>(v[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(v.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b";  break;
      case '\f': out += "\\f";  break;
      case '\n': out += "\\n";  break;
      case '\r': out += "\\r";  break;
      case '\t': out += "\\t";  break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(v.data() + run, v.size() - run);
}

void append_int(std::string& out, long long v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace

std::string json_escape(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  append_escaped(out, v);
  return out;
}

void append_quoted(std::string& out, std::string_view v) {
  out += '"';
  append_escaped(out, v);
  out += '"';
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // The longest %.17g rendering is 24 bytes: -d.dddddddddddddddde-ddd.
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                std::chars_format::general, 17)
                      .ptr);
}

std::string render_number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

std::string& Json::member(std::string_view key) {
  if (!body_.empty()) body_ += ", ";
  append_quoted(body_, key);
  body_ += ": ";
  return body_;
}

void Json::append_to(std::string& out) const {
  out += '{';
  out += body_;
  out += '}';
}

Json& Json::set(std::string_view key, double v) {
  append_number(member(key), v);
  return *this;
}
Json& Json::set(std::string_view key, long long v) {
  append_int(member(key), v);
  return *this;
}
Json& Json::set(std::string_view key, int v) {
  append_int(member(key), v);
  return *this;
}
Json& Json::set(std::string_view key, bool v) {
  member(key) += v ? "true" : "false";
  return *this;
}
Json& Json::set(std::string_view key, std::string_view v) {
  append_quoted(member(key), v);
  return *this;
}
Json& Json::set(std::string_view key, const char* v) {
  return set(key, std::string_view(v));
}
Json& Json::set(std::string_view key, const Json& nested) {
  nested.append_to(member(key));
  return *this;
}
Json& Json::set(std::string_view key, const JsonArray& arr) {
  arr.append_to(member(key));
  return *this;
}
Json& Json::set(std::string_view key, const std::vector<Json>& arr) {
  std::string& out = member(key);
  out += '[';
  for (std::size_t i = 0; i < arr.size(); ++i) {
    if (i) out += ", ";
    arr[i].append_to(out);
  }
  out += ']';
  return *this;
}

std::string Json::str() const {
  std::string s;
  s.reserve(body_.size() + 2);
  append_to(s);
  return s;
}

std::string& JsonArray::element() {
  if (size_++) body_ += ", ";
  return body_;
}

void JsonArray::append_to(std::string& out) const {
  out += '[';
  out += body_;
  out += ']';
}

JsonArray& JsonArray::push(double v) {
  append_number(element(), v);
  return *this;
}
JsonArray& JsonArray::push(long long v) {
  append_int(element(), v);
  return *this;
}
JsonArray& JsonArray::push(int v) {
  append_int(element(), v);
  return *this;
}
JsonArray& JsonArray::push(bool v) {
  element() += v ? "true" : "false";
  return *this;
}
JsonArray& JsonArray::push(std::string_view v) {
  append_quoted(element(), v);
  return *this;
}
JsonArray& JsonArray::push(const char* v) {
  return push(std::string_view(v));
}
JsonArray& JsonArray::push(const Json& obj) {
  obj.append_to(element());
  return *this;
}
JsonArray& JsonArray::push(const JsonArray& arr) {
  arr.append_to(element());
  return *this;
}

std::string JsonArray::str() const {
  std::string s;
  s.reserve(body_.size() + 2);
  append_to(s);
  return s;
}

bool write_json_file(const std::string& path, const Json& j) {
  std::FILE* fp = std::fopen(path.c_str(), "w");
  if (!fp) {
    std::fprintf(stderr, "rlc::io: cannot write %s\n", path.c_str());
    return false;
  }
  const std::string s = j.str();
  const bool ok = std::fwrite(s.data(), 1, s.size(), fp) == s.size() &&
                  std::fputc('\n', fp) != EOF;
  std::fclose(fp);
  return ok;
}

}  // namespace rlc::io
