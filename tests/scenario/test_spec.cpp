/// ScenarioSpec unit tests: sweep-grid arithmetic (bit-identical to the
/// legacy bench::inductance_sweep helper), validation failures, technology
/// resolution, and the JSON round-trip rlc_run --spec relies on.

#include "rlc/scenario/spec.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace {

using rlc::scenario::ScenarioSpec;
using rlc::scenario::SweepSpec;
using rlc::scenario::technology_by_name;

/// The arithmetic the retired bench_util.hpp helper used for every figure
/// sweep; values() must reproduce it bit-for-bit.
std::vector<double> legacy_inductance_sweep(int n, double l_max = 5.0e-6) {
  std::vector<double> ls;
  for (int i = 0; i <= n; ++i) {
    ls.push_back(l_max * static_cast<double>(i) / static_cast<double>(n));
  }
  return ls;
}

TEST(SweepSpec, DefaultGridMatchesLegacyHelperBitExactly) {
  const std::vector<double> got = SweepSpec{}.values();  // 0..5 nH/mm, 26 pts
  const std::vector<double> want = legacy_inductance_sweep(25);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << i;  // EQ, not NEAR: bit-identical
  }
}

TEST(SweepSpec, GridShapes) {
  EXPECT_EQ((SweepSpec{1e-6, 9e-6, 1, {}}.values()),
            (std::vector<double>{1e-6}));
  EXPECT_EQ((SweepSpec{0.0, 4e-6, 3, {}}.values()),
            (std::vector<double>{0.0, 2e-6, 4e-6}));
  const std::vector<double> list{5e-7, 2e-6};
  EXPECT_EQ((SweepSpec{0, 0, 1, list}.values()), list);  // explicit wins
}

TEST(SweepSpec, ValidateRejectsBadGrids) {
  const auto code = [](const SweepSpec& sp) { return sp.validate().code(); };
  EXPECT_EQ(code({0, 5e-6, 0, {}}), rlc::StatusCode::kInvalidArgument);
  EXPECT_EQ(code({-1e-6, 5e-6, 5, {}}), rlc::StatusCode::kInvalidArgument);
  EXPECT_EQ(code({5e-6, 1e-6, 5, {}}), rlc::StatusCode::kInvalidArgument);
  EXPECT_EQ(code({1e-6, 1e-6, 5, {}}), rlc::StatusCode::kInvalidArgument);
  EXPECT_EQ(code({0, 0, 1, {-1e-6}}), rlc::StatusCode::kInvalidArgument);
  EXPECT_TRUE((SweepSpec{1e-6, 1e-6, 1, {}}.validate().is_ok()));
  // values() still throws for callers that skip validate().
  EXPECT_THROW((SweepSpec{0, 5e-6, 0, {}}.values()), std::invalid_argument);
}

TEST(ScenarioSpec, ValidateChecksEveryField) {
  ScenarioSpec ok;
  ok.scenario = "fig4";
  EXPECT_TRUE(ok.validate().is_ok());

  const auto expect_invalid = [](const ScenarioSpec& sp) {
    const rlc::Status st = sp.validate();
    EXPECT_EQ(st.code(), rlc::StatusCode::kInvalidArgument);
    EXPECT_FALSE(st.message().empty());
  };
  ScenarioSpec s = ok;
  s.scenario.clear();
  expect_invalid(s);

  s = ok;
  s.technology = "7nm_finfet_x";
  expect_invalid(s);

  s = ok;
  s.threshold = 1.0;
  expect_invalid(s);

  s = ok;
  s.segments_per_line = 0;
  expect_invalid(s);

  s = ok;
  s.ring_stages = 4;  // even ring cannot oscillate
  expect_invalid(s);
}

TEST(ScenarioSpec, TechnologyByNameResolvesAllSpellings) {
  EXPECT_EQ(technology_by_name("250nm").name, technology_by_name("250").name);
  EXPECT_EQ(technology_by_name("100nm").name, technology_by_name("100").name);
  EXPECT_NO_THROW(technology_by_name("100nm_c250"));
  // Interpolated nodes: "<N>nm" or a bare number.
  const auto t180 = technology_by_name("180nm");
  EXPECT_NEAR(t180.line(0.0).c, technology_by_name("180").line(0.0).c, 0.0);
  EXPECT_THROW(technology_by_name(""), std::invalid_argument);
  EXPECT_THROW(technology_by_name("bogus"), std::invalid_argument);
}

TEST(ScenarioSpec, JsonRoundTripPreservesEveryField) {
  ScenarioSpec s;
  s.scenario = "fig7";
  s.technology = "250nm";
  s.sweep = SweepSpec{1e-7, 4e-6, 11, {}};
  s.threshold = 0.4;
  s.segments_per_line = 20;
  s.ring_stages = 7;
  s.quick = true;
  s.max_newton_iterations = 55;
  s.residual_tol = 1e-11;
  s.talbot_points = 64;
  const ScenarioSpec back =
      ScenarioSpec::from_json_text(s.to_json().str()).value();
  EXPECT_EQ(back, s);

  ScenarioSpec e = s;
  e.sweep = SweepSpec{0, 0, 26, {1.8e-6, 2.2e-6}};
  EXPECT_EQ(ScenarioSpec::from_json_text(e.to_json().str()).value(), e);
}

TEST(ScenarioSpec, FromJsonReturnsStatusNotThrow) {
  // Malformed document and out-of-domain value both come back as
  // invalid_argument — nothing escapes the parse boundary.
  EXPECT_EQ(ScenarioSpec::from_json_text("{oops").status().code(),
            rlc::StatusCode::kInvalidArgument);
  EXPECT_EQ(ScenarioSpec::from_json_text(
                "{\"scenario\": \"fig4\", \"threshold\": 2.0}")
                .status()
                .code(),
            rlc::StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ScenarioSpec::from_json_text("{\"scenario\": \"fig4\"}").status().code(),
      rlc::StatusCode::kOk);
}

TEST(ScenarioSpec, FromJsonToleratesMissingFields) {
  const ScenarioSpec want = [] {
    ScenarioSpec d;
    d.scenario = "fig4";
    return d;
  }();  // everything else at defaults
  // A spec that still sends the retired `parallel` switch (schema <= 8
  // artifacts) parses too: unknown keys are ignored.
  for (const char* text : {"{\"scenario\": \"fig4\"}",
                           "{\"scenario\": \"fig4\", \"parallel\": false}"}) {
    const auto s = ScenarioSpec::from_json_text(text);
    ASSERT_TRUE(s.is_ok()) << text << ": " << s.status().to_string();
    EXPECT_EQ(*s, want) << text;
  }
}

TEST(ScenarioSpec, FromJsonRejectsNonIntegralAndOutOfRangeInts) {
  // Each integer field takes only a number that is an int: a fraction, a
  // value that wraps into int range (2^32 + a valid value), one whose
  // conversion would be undefined and a quoted valid value all come back
  // as invalid_argument naming the field, instead of being truncated to a
  // valid spec or replaced by the default.
  const struct {
    const char* name;  ///< field path in the message
    const char* json;  ///< the field with "%s" for the value
    const char* valid;  ///< an accepted value
    const char* fraction;  ///< truncates to a valid value
    const char* wraps;  ///< 2^32 + valid
  } fields[] = {
      {"spec.sweep.points", "\"sweep\": {\"points\": %s}", "3", "3.9",
       "4294967299"},
      {"spec.segments_per_line", "\"segments_per_line\": %s", "4", "4.5",
       "4294967300"},
      {"spec.ring_stages", "\"ring_stages\": %s", "5", "5.5", "4294967301"},
      {"spec.max_newton_iterations", "\"max_newton_iterations\": %s", "3",
       "3.9", "4294967299"},
      {"spec.talbot_points", "\"talbot_points\": %s", "48", "48.5",
       "4294967344"},
  };
  const auto spec_with = [](const char* field, const std::string& value) {
    std::string body = field;
    body.replace(body.find("%s"), 2, value);
    return "{\"scenario\": \"fig5\", " + body + "}";
  };
  for (const auto& f : fields) {
    const std::string ok = spec_with(f.json, f.valid);
    EXPECT_TRUE(ScenarioSpec::from_json_text(ok).is_ok()) << ok;
    const std::string quoted = "\"" + std::string(f.valid) + "\"";
    for (const std::string& value :
         {std::string(f.fraction), std::string(f.wraps), std::string("1e300"),
          std::string("-1e300"), quoted}) {
      const std::string text = spec_with(f.json, value);
      const auto r = ScenarioSpec::from_json_text(text);
      if (r.is_ok()) {
        ADD_FAILURE() << text << " was accepted";
        continue;
      }
      EXPECT_EQ(r.status().code(), rlc::StatusCode::kInvalidArgument) << text;
      EXPECT_NE(r.status().message().find(f.name), std::string::npos)
          << text << ": " << r.status().to_string();
    }
  }
}

TEST(ScenarioSpec, FromJsonRejectsMistypedFieldsNamingThem) {
  // A number, boolean, string or array field of the wrong JSON kind comes
  // back as invalid_argument naming the field, never as its default: a
  // quoted threshold must not run at 0.5, nor "quick": "yes" run the full
  // grid.  A null keeps the default and unknown keys stay ignored.
  const struct {
    const char* name;  ///< field path in the message
    const char* body;  ///< the spec's members
  } cases[] = {
      {"spec.scenario", "\"scenario\": 5"},
      {"spec.technology", "\"scenario\": \"fig5\", \"technology\": 100"},
      {"spec.threshold", "\"scenario\": \"fig5\", \"threshold\": \"0.7\""},
      {"spec.residual_tol", "\"scenario\": \"fig5\", \"residual_tol\": [1]"},
      {"spec.quick", "\"scenario\": \"fig5\", \"quick\": \"yes\""},
      {"spec.quick", "\"scenario\": \"fig5\", \"quick\": 1"},
      {"spec.sweep", "\"scenario\": \"fig5\", \"sweep\": [3]"},
      {"spec.sweep.l_min",
       "\"scenario\": \"fig5\", \"sweep\": {\"l_min\": \"0\"}"},
      {"spec.sweep.l_max",
       "\"scenario\": \"fig5\", \"sweep\": {\"l_max\": true}"},
      {"spec.sweep.explicit_l",
       "\"scenario\": \"fig5\", \"sweep\": {\"explicit_l\": 1e-6}"},
      {"spec.sweep.explicit_l",
       "\"scenario\": \"fig5\", \"sweep\": {\"explicit_l\": [1e-6, \"2e-6\"]}"},
  };
  for (const auto& c : cases) {
    const std::string text = std::string("{") + c.body + "}";
    const auto r = ScenarioSpec::from_json_text(text);
    if (r.is_ok()) {
      ADD_FAILURE() << text << " was accepted";
      continue;
    }
    EXPECT_EQ(r.status().code(), rlc::StatusCode::kInvalidArgument) << text;
    EXPECT_NE(r.status().message().find(c.name), std::string::npos)
        << text << ": " << r.status().to_string();
  }

  ScenarioSpec want;
  want.scenario = "fig5";
  want.sweep.explicit_l = {1e-6, 2e-6};
  const auto r = ScenarioSpec::from_json_text(
      "{\"scenario\": \"fig5\", \"technology\": null, \"threshold\": null, "
      "\"quick\": null, \"sweep\": {\"points\": null, "
      "\"explicit_l\": [1e-6, 2e-6]}, \"bogus\": \"yes\"}");
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(*r, want);
}

TEST(ScenarioSpec, OptionsMapSpecFields) {
  ScenarioSpec s;
  s.scenario = "x";
  s.threshold = 0.45;
  s.max_newton_iterations = 33;
  s.residual_tol = 1e-8;
  s.talbot_points = 40;
  const auto opt = s.optim_options();
  EXPECT_EQ(opt.f, 0.45);
  EXPECT_EQ(opt.max_iterations, 33);
  EXPECT_EQ(opt.residual_tolerance, 1e-8);
  const auto ex = s.exact_options();
  EXPECT_EQ(ex.talbot_points, 40);
  EXPECT_EQ(ex.window_points, 40);
}

}  // namespace
