#pragma once

/// \file json_reader.hpp
/// Minimal recursive-descent JSON reader: enough to round-trip everything
/// the `rlc::io::Json` writer emits (objects with ordered keys, arrays,
/// numbers, strings with full RFC 8259 escapes incl. \uXXXX surrogate
/// pairs, booleans, null).  Used by the ScenarioSpec JSON round-trip, the
/// rlc_run `--spec` path, and the artifact round-trip tests.
///
/// Not a general-purpose parser: documents are expected to fit in memory
/// and parse errors throw std::runtime_error with a byte offset.

#include <optional>
#include <string>
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
  const JsonValue* find(const std::string& key) const;

  /// Lookup with defaults, for tolerant parsing of trusted documents.
  /// int_or truncates toward zero and gives the fallback for a number
  /// outside the long long range; an untrusted integer field goes through
  /// exact_int instead.
  double number_or(const std::string& key, double fallback) const;
  long long int_or(const std::string& key, long long fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;
  std::string string_or(const std::string& key, std::string fallback) const;

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

/// Parse a complete JSON document; trailing non-whitespace is an error.
JsonValue parse_json(const std::string& text);

/// Parse a JSON file; throws std::runtime_error if unreadable.
JsonValue parse_json_file(const std::string& path);

}  // namespace rlc::io
