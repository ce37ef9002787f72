#include "support/derivative.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace rlc::math {
namespace {

TEST(CentralDiff, Exponential) {
  EXPECT_NEAR(central_diff([](double x) { return std::exp(x); }, 1.0),
              std::exp(1.0), 1e-8);
}

TEST(CentralDiff, AtZeroUsesAbsoluteStep) {
  EXPECT_NEAR(central_diff([](double x) { return std::sin(x); }, 0.0), 1.0,
              1e-6);
}

TEST(RichardsonDiff, HigherAccuracyThanCentral) {
  const auto f = [](double x) { return std::sin(3.0 * x); };
  const double exact = 3.0 * std::cos(3.0 * 0.4);
  const double ec = std::abs(central_diff(f, 0.4, 1e-3) - exact);
  const double er = std::abs(richardson_diff(f, 0.4, 1e-3) - exact);
  EXPECT_LT(er, ec);
  EXPECT_NEAR(richardson_diff(f, 0.4, 1e-3), exact, 1e-10);
}

TEST(CentralDiff2, Quadratic) {
  EXPECT_NEAR(central_diff2([](double x) { return 3.0 * x * x; }, 5.0), 6.0,
              1e-5);
}

TEST(CentralDiff2, Cosine) {
  EXPECT_NEAR(central_diff2([](double x) { return std::cos(x); }, 0.7),
              -std::cos(0.7), 1e-5);
}

}  // namespace
}  // namespace rlc::math
