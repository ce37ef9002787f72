#pragma once

/// \file json_reader.hpp
/// Minimal recursive-descent JSON reader: enough to round-trip everything
/// the `rlc::io::Json` writer emits (objects with ordered keys, arrays,
/// numbers, strings with full RFC 8259 escapes incl. \uXXXX surrogate
/// pairs, booleans, null).  Used by the ScenarioSpec JSON round-trip, the
/// rlc_run `--spec` path, and the artifact round-trip tests.
///
/// Number tokens parse in place with std::from_chars; a token it refuses
/// or reports out of range goes through strtod, so `+1` still reads as 1
/// and `1e400` as infinity.  Either way a number gets strtod's bits.
///
/// Not a general-purpose parser: documents are expected to fit in memory
/// and parse errors throw std::runtime_error with a byte offset.

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rlc::io {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  /// Typed accessors; throw std::runtime_error on a kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;  ///< array elements
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object lookup (first match); nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Lookup with defaults, for tolerant parsing of trusted documents.
  /// int_or truncates toward zero and gives the fallback for a number
  /// outside the long long range; an untrusted integer field goes through
  /// exact_int instead.
  double number_or(std::string_view key, double fallback) const;
  long long int_or(std::string_view key, long long fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;
  std::string string_or(std::string_view key, std::string fallback) const;

 private:
  friend class Parser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// `d` as an int when it is integral and within int's range; nullopt for
/// fractions, NaN, infinities and out-of-range magnitudes.  The check runs
/// before any conversion: casting an out-of-range double to an integer is
/// undefined behaviour, and untrusted JSON can carry 1e300.  Every integer
/// field of a request or spec is read through here.
std::optional<int> exact_int(double d);

// Strict readers of an untrusted object's members (requests, specs, admin
// ops): a missing or null key keeps *out, but a key present with the wrong
// JSON kind is an error — a serving API must not silently ignore a
// mistyped "l" and answer for l = 0.  Each returns false at a bad field,
// with "<where><key> must be ..." in *err; `where` is the field's path
// prefix (e.g. "spec.sweep.").  Unknown keys are never looked at.

namespace detail {
inline bool reject_field(std::string* err, std::string_view where,
                         std::string_view key, const char* what) {
  *err = std::string(where).append(key).append(what);
  return false;
}
}  // namespace detail

inline bool take_number(const JsonValue& v, std::string_view key, double* out,
                        std::string* err, std::string_view where = {}) {
  const JsonValue* f = v.find(key);
  if (!f || f->is_null()) return true;
  if (f->kind() != JsonValue::Kind::kNumber) {
    return detail::reject_field(err, where, key, " must be a number");
  }
  *out = f->as_number();
  return true;
}

/// A number that exact_int accepts.
inline bool take_int(const JsonValue& v, std::string_view key, int* out,
                     std::string* err, std::string_view where = {}) {
  double d = *out;
  if (!take_number(v, key, &d, err, where)) return false;
  const std::optional<int> i = exact_int(d);
  if (!i) return detail::reject_field(err, where, key, " must be an integer");
  *out = *i;
  return true;
}

inline bool take_bool(const JsonValue& v, std::string_view key, bool* out,
                      std::string* err, std::string_view where = {}) {
  const JsonValue* f = v.find(key);
  if (!f || f->is_null()) return true;
  if (f->kind() != JsonValue::Kind::kBool) {
    return detail::reject_field(err, where, key, " must be a boolean");
  }
  *out = f->as_bool();
  return true;
}

inline bool take_string(const JsonValue& v, std::string_view key,
                        std::string* out, std::string* err,
                        std::string_view where = {}) {
  const JsonValue* f = v.find(key);
  if (!f || f->is_null()) return true;
  if (f->kind() != JsonValue::Kind::kString) {
    return detail::reject_field(err, where, key, " must be a string");
  }
  *out = f->as_string();
  return true;
}

/// An array whose every element is a number.
inline bool take_numbers(const JsonValue& v, std::string_view key,
                         std::vector<double>* out, std::string* err,
                         std::string_view where = {}) {
  const JsonValue* f = v.find(key);
  if (!f || f->is_null()) return true;
  const char* const what = " must be an array of numbers";
  if (f->kind() != JsonValue::Kind::kArray) {
    return detail::reject_field(err, where, key, what);
  }
  std::vector<double> numbers;
  numbers.reserve(f->items().size());
  for (const JsonValue& item : f->items()) {
    if (item.kind() != JsonValue::Kind::kNumber) {
      return detail::reject_field(err, where, key, what);
    }
    numbers.push_back(item.as_number());
  }
  *out = std::move(numbers);
  return true;
}

/// Parse a complete JSON document; trailing non-whitespace is an error.
JsonValue parse_json(const std::string& text);

/// Parse a JSON file; throws std::runtime_error if unreadable.
JsonValue parse_json_file(const std::string& path);

}  // namespace rlc::io
