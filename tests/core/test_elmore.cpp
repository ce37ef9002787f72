#include "rlc/core/elmore.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "support/derivative.hpp"

namespace rlc::core {
namespace {

TEST(Elmore, Table1RowsReproduced250nm) {
  const auto o = rc_optimum(Technology::nm250());
  EXPECT_NEAR(o.h, 14.4e-3, 0.05e-3);    // 14.4 mm
  EXPECT_NEAR(o.k, 578.0, 1.0);
  EXPECT_NEAR(o.tau, 305.17e-12, 0.5e-12);
}

TEST(Elmore, Table1RowsReproduced100nm) {
  const auto o = rc_optimum(Technology::nm100());
  EXPECT_NEAR(o.h, 11.1e-3, 0.05e-3);
  EXPECT_NEAR(o.k, 528.0, 1.0);
  EXPECT_NEAR(o.tau, 105.94e-12, 0.3e-12);
}

TEST(Elmore, SegmentDelayFormula) {
  const Repeater rep{1000.0, 2e-15, 6e-15};
  const double r = 4000.0, c = 2e-10, h = 0.01, k = 100.0;
  const double expect = (1000.0 / k) * (6e-15 * k + 2e-15 * k) +
                        (1000.0 / k) * c * h + r * h * 2e-15 * k +
                        0.5 * r * c * h * h;
  EXPECT_NEAR(elmore_segment_delay(rep, r, c, h, k), expect, 1e-18);
}

TEST(Elmore, ClosedFormIsTheTrueMinimum) {
  // The analytic optimum must be a stationary point of tau/h in both h and k.
  const auto tech = Technology::nm250();
  const auto o = rc_optimum(tech);
  const auto dpl_h = [&](double h) {
    return elmore_segment_delay(tech.rep, tech.r, tech.c, h, o.k) / h;
  };
  const auto dpl_k = [&](double k) {
    return elmore_segment_delay(tech.rep, tech.r, tech.c, o.h, k) / o.h;
  };
  EXPECT_NEAR(rlc::math::central_diff(dpl_h, o.h) * o.h / dpl_h(o.h), 0.0, 1e-6);
  EXPECT_NEAR(rlc::math::central_diff(dpl_k, o.k) * o.k / dpl_k(o.k), 0.0, 1e-6);
}

TEST(Elmore, TauIndependentOfWireLevel) {
  // tau_optRC depends only on the repeater: change (r, c) and it must not
  // move (Section 3.1: "it can be treated as a technology parameter").
  const auto tech = Technology::nm250();
  const auto o1 = rc_optimum(tech.rep, tech.r, tech.c);
  const auto o2 = rc_optimum(tech.rep, 3.0 * tech.r, 0.5 * tech.c);
  EXPECT_NEAR(o1.tau, o2.tau, 1e-18);
  EXPECT_NE(o1.h, o2.h);
}

TEST(Elmore, InferenceRoundTripOnTable1) {
  for (const auto& tech : {Technology::nm250(), Technology::nm100()}) {
    const auto o = rc_optimum(tech);
    const auto rep = infer_repeater_from_rc_optimum(tech.r, tech.c, o.h, o.k, o.tau);
    EXPECT_NEAR(rep.rs, tech.rep.rs, 1e-6 * tech.rep.rs) << tech.name;
    EXPECT_NEAR(rep.c0, tech.rep.c0, 1e-6 * tech.rep.c0) << tech.name;
    EXPECT_NEAR(rep.cp, tech.rep.cp, 1e-6 * tech.rep.cp) << tech.name;
  }
}

TEST(Elmore, InferenceRoundTripRandomized) {
  // Property: for random physical repeaters, optimum -> inference recovers
  // the repeater (the calibration flow the paper runs through SPICE).
  std::mt19937 rng(123);
  std::uniform_real_distribution<double> u(0.2, 5.0);
  for (int trial = 0; trial < 50; ++trial) {
    Repeater rep;
    rep.rs = 5e3 * u(rng);
    rep.c0 = 1e-15 * u(rng);
    rep.cp = 3e-15 * u(rng);
    const double r = 3e3 * u(rng), c = 1.5e-10 * u(rng);
    const auto o = rc_optimum(rep, r, c);
    const auto back = infer_repeater_from_rc_optimum(r, c, o.h, o.k, o.tau);
    EXPECT_NEAR(back.rs, rep.rs, 1e-8 * rep.rs) << trial;
    EXPECT_NEAR(back.c0, rep.c0, 1e-8 * rep.c0) << trial;
    EXPECT_NEAR(back.cp, rep.cp, 1e-8 * rep.cp) << trial;
  }
}

TEST(Elmore, InferenceRejectsInconsistentTriples) {
  const auto tech = Technology::nm250();
  const auto o = rc_optimum(tech);
  // tau too small (g <= 0) and tau too large (g >= sqrt 2) both violate the
  // closed-form relations.
  EXPECT_THROW(
      infer_repeater_from_rc_optimum(tech.r, tech.c, o.h, o.k, 0.4 * o.tau),
      std::domain_error);
  EXPECT_THROW(
      infer_repeater_from_rc_optimum(tech.r, tech.c, o.h, o.k, 5.0 * o.tau),
      std::domain_error);
  EXPECT_THROW(infer_repeater_from_rc_optimum(-1.0, tech.c, o.h, o.k, o.tau),
               std::domain_error);
}

TEST(Elmore, DelayPerLengthHelper) {
  const auto tech = Technology::nm100();
  const auto o = rc_optimum(tech);
  EXPECT_NEAR(o.delay_per_length(), o.tau / o.h, 1e-20);
}

}  // namespace
}  // namespace rlc::core
