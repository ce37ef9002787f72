#pragma once

/// \file json.hpp
/// Minimal ordered JSON writer for the machine-readable experiment
/// artifacts (BENCH_*.json) and the ScenarioSpec round-trip.  Promoted out
/// of bench/bench_util.hpp so the scenario layer, the rlc_run driver, and
/// the examples share one implementation.
///
/// `Json` builds an object whose keys keep insertion order; each value is
/// rendered on insertion into the builder's one text buffer, so nesting is
/// by composing builders.  `JsonArray` is the matching ordered array
/// builder (rows of mixed numbers/strings).  Strings are escaped per RFC
/// 8259: quote, backslash, and every control character below 0x20 (the
/// named escapes \b \f \n \r \t, \u00XX for the rest).  Numbers go through
/// <charconv> and come out as the bytes of printf's "%.17g" in the C
/// locale; non-finite numbers render as `null` — JSON has no inf/nan.

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rlc::io {

/// Escape a string body per RFC 8259 (no surrounding quotes).
std::string json_escape(std::string_view v);

/// Append `v` as a JSON string: quoted and escaped as json_escape does.
void append_quoted(std::string& out, std::string_view v);

/// Append `v` as a JSON number round-trippable to the same bits: the bytes
/// of printf's "%.17g" (std::to_chars, general format, precision 17), or
/// `null` when non-finite.
void append_number(std::string& out, double v);

/// append_number into a fresh string.
std::string render_number(double v);

class JsonArray;

class Json {
 public:
  Json() = default;
  /// An object whose first members are `members`: the members() of
  /// another Json, rendered earlier and kept.
  explicit Json(std::string members) : body_(std::move(members)) {}

  Json& set(std::string_view key, double v);
  Json& set(std::string_view key, long long v);
  Json& set(std::string_view key, int v);
  Json& set(std::string_view key, bool v);
  Json& set(std::string_view key, std::string_view v);
  Json& set(std::string_view key, const char* v);
  Json& set(std::string_view key, const Json& nested);
  Json& set(std::string_view key, const JsonArray& arr);
  Json& set(std::string_view key, const std::vector<Json>& arr);

  std::string str() const;

  /// The members rendered so far, comma-separated, without the braces.
  const std::string& members() const { return body_; }

 private:
  friend class JsonArray;
  /// Open a member: separator, quoted key and colon; the caller appends
  /// the value to the returned buffer.
  std::string& member(std::string_view key);
  void append_to(std::string& out) const;
  std::string body_;  ///< the members, comma-separated, without braces
};

class JsonArray {
 public:
  JsonArray& push(double v);
  JsonArray& push(long long v);
  JsonArray& push(int v);
  JsonArray& push(bool v);
  JsonArray& push(std::string_view v);
  JsonArray& push(const char* v);
  JsonArray& push(const Json& obj);
  JsonArray& push(const JsonArray& arr);

  std::size_t size() const { return size_; }
  std::string str() const;

 private:
  friend class Json;
  /// Open an element: the separator; the caller appends the value.
  std::string& element();
  void append_to(std::string& out) const;
  std::string body_;  ///< the elements, comma-separated, without brackets
  std::size_t size_ = 0;
};

/// Write a JSON document (plus trailing newline) to `path`; returns false
/// (with a note on stderr) on I/O failure so callers can keep rendering
/// their human-readable output regardless.
bool write_json_file(const std::string& path, const Json& j);

}  // namespace rlc::io
