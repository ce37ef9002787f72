#include "support/stehfest.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numeric>
#include <vector>

#include "rlc/laplace/talbot.hpp"
#include "support/point_span.hpp"

namespace rlc::laplace {
namespace {

TEST(Stehfest, WeightsSumToZero) {
  // Sum of Stehfest weights is 0 (constant Laplace image of 0 inverts to 0);
  // a classic self-check of the coefficient generation.
  for (int n : {8, 10, 12, 14, 16}) {
    const auto v = stehfest_weights(n);
    const double sum = std::accumulate(v.begin() + 1, v.end(), 0.0);
    EXPECT_NEAR(sum, 0.0, 1e-4 * std::abs(v[n / 2])) << "N = " << n;
  }
}

TEST(Stehfest, WeightsRejectOddOrSmallN) {
  EXPECT_THROW(stehfest_weights(7), std::invalid_argument);
  EXPECT_THROW(stehfest_weights(0), std::invalid_argument);
}

TEST(Stehfest, StepFunction) {
  const auto F = [](double s) { return 1.0 / s; };
  EXPECT_NEAR(stehfest_invert(F, 1.0), 1.0, 1e-8);
  EXPECT_NEAR(stehfest_invert(F, 17.0), 1.0, 1e-8);
}

TEST(Stehfest, Exponential) {
  const double a = 2.0;
  const auto F = [a](double s) { return 1.0 / (s + a); };
  for (double t : {0.1, 0.5, 1.0}) {
    EXPECT_NEAR(stehfest_invert(F, t), std::exp(-a * t), 1e-4) << t;
  }
}

TEST(Stehfest, Ramp) {
  const auto F = [](double s) { return 1.0 / (s * s); };
  EXPECT_NEAR(stehfest_invert(F, 3.0), 3.0, 1e-4);
}

TEST(Stehfest, KnownWeaknessOnOscillatoryResponses) {
  // Documented limitation: Gaver-Stehfest degrades on strongly oscillatory
  // f(t).  sin(10 t) at t where it matters: expect visible error (this test
  // asserts the limitation so users are not surprised).
  const double w = 10.0;
  const auto F = [w](double s) { return w / (s * s + w * w); };
  const double t = 2.0;
  const double err = std::abs(stehfest_invert(F, t, 14) - std::sin(w * t));
  EXPECT_GT(err, 1e-3);
}

TEST(Stehfest, InputValidation) {
  const auto F = [](double s) { return 1.0 / s; };
  EXPECT_THROW(stehfest_invert(F, 0.0), std::invalid_argument);
}

TEST(Stehfest, MultiTimeOverloadMatchesScalar) {
  const double a = 2.0;
  const auto F = [a](double s) { return 1.0 / (s + a); };
  const std::vector<double> times{0.1, 0.5, 1.0, 2.0};
  const auto v = stehfest_invert(F, times, 14);
  ASSERT_EQ(v.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_DOUBLE_EQ(v[i], stehfest_invert(F, times[i], 14)) << times[i];
  }
  const auto empty = stehfest_invert(F, std::vector<double>{}, 14);
  EXPECT_TRUE(empty.empty());
}

TEST(Stehfest, CrossChecksWindowedTalbotOnSmoothResponse) {
  // Independent-method agreement: Gaver-Stehfest (real-axis samples) and
  // one shared Talbot contour must agree on a smooth RC-style step
  // response across a ratio-4 window.  This guards both inverters at
  // once — a systematic error in either would break the match.
  const double a = 5.0;
  const auto F_real = [a](double s) { return a / (s * (s + a)); };
  const auto F_cplx = [a](std::complex<double> s) { return a / (s * (s + a)); };
  const double t_max = 1.6, lambda = 4.0;
  std::vector<double> times;
  for (int i = 0; i <= 8; ++i) {
    times.push_back(t_max / lambda * std::pow(lambda, i / 8.0));
  }
  const auto stehfest = stehfest_invert(F_real, times, 14);
  const TalbotContour talbot(PointSpan{F_cplx}, t_max, 48);
  ASSERT_EQ(stehfest.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_NEAR(stehfest[i], talbot.eval(times[i]), 1e-4)
        << "t = " << times[i];
    EXPECT_NEAR(talbot.eval(times[i]), 1.0 - std::exp(-a * times[i]), 1e-6)
        << "t = " << times[i];
  }
}

}  // namespace
}  // namespace rlc::laplace
