/// rlc::io unit tests: RFC 8259 string escaping in the writer, number
/// rendering (the bytes of printf's "%.17g"), the recursive-descent reader
/// (escapes, surrogate pairs, error offsets, numbers read as strtod reads
/// them), the pinned bytes of a nested document, and a full writer ->
/// reader round-trip.

#include "rlc/io/json.hpp"
#include "rlc/io/json_reader.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

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

/// The finite doubles the number tests run over: the edge values, then
/// seeded random bit patterns, subnormals and values across the l range.
std::vector<double> number_samples() {
  const double two53 = std::ldexp(1.0, 53);
  std::vector<double> v = {0.0, -0.0, 1.0, -1.0, 0.1, 2.5e-6, 1e-9,
                           two53 - 1.0, two53, two53 + 2.0,
                           DBL_MAX, -DBL_MAX, DBL_MIN,
                           std::numeric_limits<double>::denorm_min(),
                           std::nextafter(DBL_MIN, 0.0)};
  // The exponents where %g switches between fixed and scientific notation.
  for (const double edge : {1e-5, 1e-4, 1e16, 1e17}) {
    for (const double x : {std::nextafter(edge, 0.0), edge,
                           std::nextafter(edge, DBL_MAX)}) {
      v.push_back(x);
      v.push_back(-x);
    }
  }
  std::mt19937_64 rng(20261019);
  while (v.size() < 100000) {
    const double d = std::bit_cast<double>(rng());
    if (std::isfinite(d)) v.push_back(d);
  }
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  for (int i = 0; i < 10000; ++i) {
    v.push_back(std::bit_cast<double>((rng() & kMantissa) | (rng() << 63)));
  }
  std::uniform_real_distribution<double> l_range(0.0, 5e-6);
  for (int i = 0; i < 10000; ++i) v.push_back(l_range(rng));
  return v;
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

// Every wire byte, cache key and cache hash was written with
// snprintf("%.17g") before render_number moved to std::to_chars.
TEST(JsonNumbers, RenderNumberIsPrintfG17) {
  int mismatches = 0;
  for (const double v : number_samples()) {
    char want[40];
    std::snprintf(want, sizeof want, "%.17g", v);
    if (render_number(v) != want && ++mismatches <= 5) {
      ADD_FAILURE() << "render_number gives " << render_number(v)
                    << ", printf " << want;
    }
  }
  EXPECT_EQ(mismatches, 0);
  std::string out = "x";
  rlc::io::append_number(out, -0.5);
  rlc::io::append_number(out, std::nan(""));
  EXPECT_EQ(out, "x-0.5null");
}

// The reader takes std::from_chars's value only when it accepts the whole
// token in range; strtod reads every other token.  So each number gets
// strtod's bits, and the tokens strtod accepted and refused before still
// are (JSON would refuse "+1", ".5", "1." and "00").
TEST(JsonReader, NumbersReadAsStrtodReadsThem) {
  struct Case {
    const char* token;
    bool accepted;
  };
  for (const Case c : {Case{"+1", true}, Case{".5", true}, Case{"1.", true},
                       Case{"-0", true}, Case{"00", true}, Case{"1e", false},
                       Case{"--1", false}, Case{"1.2.3", false},
                       Case{"1e400", true}, Case{"-1e400", true},
                       Case{"1e-400", true},
                       Case{"4.121477099825259e-06", true}}) {
    char* end = nullptr;
    const double want = std::strtod(c.token, &end);
    ASSERT_EQ(*end == '\0', c.accepted) << c.token;
    if (!c.accepted) {
      EXPECT_THROW(parse_json(c.token), std::runtime_error) << c.token;
      continue;
    }
    double got = 0.0;
    ASSERT_NO_THROW(got = parse_json(c.token).as_number()) << c.token;
    EXPECT_EQ(bits(got), bits(want)) << c.token;
  }
  int mismatches = 0;
  for (const double v : number_samples()) {
    const std::string text = render_number(v);
    const double want = std::strtod(text.c_str(), nullptr);
    const double got = parse_json(text).as_number();
    if ((bits(got) != bits(want) || bits(got) != bits(v)) &&
        ++mismatches <= 5) {
      ADD_FAILURE() << text << " reads as " << got;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(JsonWriter, ObjectKeepsInsertionOrderAndEscapesStrings) {
  Json j;
  j.set("b", 1).set("a", "x\ny").set("flag", true);
  EXPECT_EQ(j.str(), "{\"b\": 1, \"a\": \"x\\ny\", \"flag\": true}");
}

// The bytes of a nested document, as the writer has always rendered it:
// separators, escaped keys, non-finite numbers as null, empty containers.
TEST(JsonWriter, NestedDocumentBytesArePinned) {
  const double inf = std::numeric_limits<double>::infinity();
  Json inner;
  inner.set("tab\tkey", 0.1)
      .set("nan", std::nan(""))
      .set("-inf", -inf)
      .set("tiny", 5e-324)
      .set("neg_zero", -0.0);
  JsonArray row;
  row.push(Json())
      .push(JsonArray())
      .push(1e-5)
      .push(1e16)
      .push(2.5)
      .push(inf)
      .push("q\"\\\x01")
      .push(false)
      .push(-7LL)
      .push(42);
  EXPECT_EQ(row.size(), 10u);
  Json doc;
  doc.set("quote\"key", inner)
      .set("rows", row)
      .set("list", std::vector<Json>{Json(), inner})
      .set("empty_object", Json())
      .set("empty_array", JsonArray())
      .set("empty_list", std::vector<Json>{})
      .set("text", std::string("line\nnext"))
      .set("flag", true)
      .set("count", 3LL);
  const std::string inner_text =
      R"({"tab\tkey": 0.10000000000000001, "nan": null, "-inf": null, )"
      R"("tiny": 4.9406564584124654e-324, "neg_zero": -0})";
  EXPECT_EQ(doc.str(),
            R"({"quote\"key": )" + inner_text +
                R"(, "rows": [{}, [], 1.0000000000000001e-05, )"
                R"(10000000000000000, 2.5, null, "q\"\\\u0001", false, )"
                R"(-7, 42], "list": [{}, )" +
                inner_text +
                R"(], "empty_object": {}, "empty_array": [], )"
                R"("empty_list": [], "text": "line\nnext", "flag": true, )"
                R"("count": 3})");
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
