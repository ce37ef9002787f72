/// rlc::io unit tests: RFC 8259 string escaping in the writer, number
/// rendering, the recursive-descent reader (escapes, surrogate pairs,
/// error offsets), and a full writer -> reader round-trip.

#include "rlc/io/json.hpp"
#include "rlc/io/json_reader.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

namespace {

using rlc::io::Json;
using rlc::io::JsonArray;
using rlc::io::JsonValue;
using rlc::io::json_escape;
using rlc::io::parse_json;
using rlc::io::render_number;

TEST(JsonEscape, NamedEscapes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
}

TEST(JsonEscape, ControlCharactersBecomeUnicodeEscapes) {
  // Every control character below 0x20 without a short escape must render
  // as \u00XX (RFC 8259 section 7) — the legacy bench writer dropped these.
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape(std::string(1, '\x1f')), "\\u001f");
  EXPECT_EQ(json_escape(std::string{'a', '\0', 'b'}), "a\\u0000b");
  // DEL (0x7f) and non-ASCII bytes pass through: JSON allows raw UTF-8.
  EXPECT_EQ(json_escape("\x7f"), "\x7f");
  EXPECT_EQ(json_escape("\xc3\xa9"), "\xc3\xa9");  // é
}

TEST(JsonNumbers, RoundTripAndNonFinite) {
  for (double v : {0.0, 1.0, -2.5, 1e-300, 3.141592653589793, 5.0e-6 / 25}) {
    const std::string text = render_number(v);
    EXPECT_EQ(std::stod(text), v) << text;
  }
  EXPECT_EQ(render_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(render_number(std::nan("")), "null");
}

TEST(JsonWriter, ObjectKeepsInsertionOrderAndEscapesStrings) {
  Json j;
  j.set("b", 1).set("a", "x\ny").set("flag", true);
  EXPECT_EQ(j.str(), "{\"b\": 1, \"a\": \"x\\ny\", \"flag\": true}");
}

TEST(JsonReader, ParsesScalarsArraysObjects) {
  const JsonValue v = parse_json(
      " {\"n\": -1.5e2, \"s\": \"hi\", \"b\": false, \"z\": null,"
      " \"a\": [1, 2, 3]} ");
  EXPECT_EQ(v.number_or("n", 0.0), -150.0);
  EXPECT_EQ(v.string_or("s", ""), "hi");
  EXPECT_EQ(v.bool_or("b", true), false);
  ASSERT_NE(v.find("z"), nullptr);
  EXPECT_TRUE(v.find("z")->is_null());
  ASSERT_NE(v.find("a"), nullptr);
  ASSERT_EQ(v.find("a")->items().size(), 3u);
  EXPECT_EQ(v.find("a")->items()[2].as_number(), 3.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonReader, DecodesEscapesAndSurrogatePairs) {
  EXPECT_EQ(parse_json("\"a\\n\\t\\\"\\\\b\"").as_string(), "a\n\t\"\\b");
  EXPECT_EQ(parse_json("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(parse_json("\"\\u00e9\"").as_string(), "\xc3\xa9");
  // U+1D11E (musical G clef) via a surrogate pair -> 4-byte UTF-8.
  EXPECT_EQ(parse_json("\"\\ud834\\udd1e\"").as_string(),
            "\xf0\x9d\x84\x9e");
}

TEST(JsonReader, ErrorsCarryByteOffsets) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\" 1}", "tru", "1 2",
                          "\"\\ud834\"", "\"unterminated"}) {
    EXPECT_THROW(parse_json(bad), std::runtime_error) << bad;
  }
  try {
    parse_json("[1, oops]");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
  }
}

TEST(JsonReader, TypedAccessorsThrowOnKindMismatch) {
  const JsonValue v = parse_json("{\"n\": 1}");
  EXPECT_THROW(v.as_number(), std::runtime_error);
  EXPECT_THROW(v.find("n")->as_string(), std::runtime_error);
  EXPECT_THROW(v.find("n")->items(), std::runtime_error);
}

TEST(JsonReader, IntOrFallsBackOutsideTheLongLongRange) {
  // The cast of an out-of-range double is undefined behaviour, which the
  // float-cast-overflow sanitizer build reports.
  const JsonValue v = parse_json(
      "{\"big\": 1e300, \"small\": -1e300, \"past\": 9.3e18, "
      "\"ok\": 42}");
  EXPECT_EQ(v.int_or("big", -1), -1);
  EXPECT_EQ(v.int_or("small", -1), -1);
  EXPECT_EQ(v.int_or("past", -1), -1);
  EXPECT_EQ(v.int_or("ok", -1), 42);
}

TEST(JsonRoundTrip, WriterOutputParsesBackIdentically) {
  JsonArray row;
  row.push(1.5).push("label \"x\"\n").push(false);
  Json inner;
  inner.set("wall_seconds", 0.25).set("note", "50% delay\t(exact)");
  Json j;
  j.set("schema", 2)
      .set("bench", "fig4")
      .set("rows", row)
      .set("spec", inner)
      .set("huge", 1.2345678901234567e300);
  const JsonValue v = parse_json(j.str());
  EXPECT_EQ(v.int_or("schema", 0), 2);
  EXPECT_EQ(v.string_or("bench", ""), "fig4");
  const JsonValue* rows = v.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->items().size(), 3u);
  EXPECT_EQ(rows->items()[0].as_number(), 1.5);
  EXPECT_EQ(rows->items()[1].as_string(), "label \"x\"\n");
  EXPECT_EQ(rows->items()[2].as_bool(), false);
  ASSERT_NE(v.find("spec"), nullptr);
  EXPECT_EQ(v.find("spec")->string_or("note", ""), "50% delay\t(exact)");
  // %.17g guarantees bit-exact double round-trips.
  EXPECT_EQ(v.number_or("huge", 0.0), 1.2345678901234567e300);
}

TEST(JsonFile, WriteThenParseFile) {
  const std::string path = ::testing::TempDir() + "rlc_io_test.json";
  Json j;
  j.set("k", "v");
  ASSERT_TRUE(rlc::io::write_json_file(path, j));
  const JsonValue v = rlc::io::parse_json_file(path);
  EXPECT_EQ(v.string_or("k", ""), "v");
  std::remove(path.c_str());
  EXPECT_THROW(rlc::io::parse_json_file(path), std::runtime_error);
}

}  // namespace
