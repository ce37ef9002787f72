#include "rlc/math/polynomial.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace rlc::math {
namespace {

TEST(QuadraticRoots, DistinctReal) {
  // (x - 2)(x + 5) = x^2 + 3x - 10
  const auto [r1, r2] = quadratic_roots(1.0, 3.0, -10.0);
  const double lo = std::min(r1.real(), r2.real());
  const double hi = std::max(r1.real(), r2.real());
  EXPECT_NEAR(lo, -5.0, 1e-12);
  EXPECT_NEAR(hi, 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(r1.imag(), 0.0);
  EXPECT_DOUBLE_EQ(r2.imag(), 0.0);
}

TEST(QuadraticRoots, ComplexConjugate) {
  // x^2 + 2x + 5: roots -1 +- 2i
  const auto [r1, r2] = quadratic_roots(1.0, 2.0, 5.0);
  EXPECT_NEAR(r1.real(), -1.0, 1e-12);
  EXPECT_NEAR(std::abs(r1.imag()), 2.0, 1e-12);
  EXPECT_NEAR(r2.real(), -1.0, 1e-12);
  EXPECT_NEAR(r1.imag(), -r2.imag(), 1e-15);
}

TEST(QuadraticRoots, CancellationResistant) {
  // b >> 4ac: naive formula loses the small root to cancellation.
  const auto [r1, r2] = quadratic_roots(1.0, 1e8, 1.0);
  const double small = std::min(std::abs(r1.real()), std::abs(r2.real()));
  const double big = std::max(std::abs(r1.real()), std::abs(r2.real()));
  EXPECT_NEAR(small, 1e-8, 1e-14);
  EXPECT_NEAR(big, 1e8, 1.0);
}

TEST(QuadraticRoots, NearCriticalDamping) {
  // (x + 1)^2 + tiny perturbation.
  const auto [r1, r2] = quadratic_roots(1.0, 2.0, 1.0 + 1e-14);
  EXPECT_NEAR(r1.real(), -1.0, 1e-6);
  EXPECT_NEAR(r2.real(), -1.0, 1e-6);
}

TEST(QuadraticRoots, ThrowsOnDegenerateLeadingCoefficient) {
  EXPECT_THROW(quadratic_roots(0.0, 1.0, 1.0), std::invalid_argument);
}

TEST(QuadraticRoots, ProductAndSumIdentities) {
  // Vieta: r1 + r2 = -b/a, r1 * r2 = c/a, across a sweep of coefficients.
  for (double b : {-7.0, -0.5, 0.0, 0.5, 7.0}) {
    for (double c : {-3.0, 0.25, 2.0}) {
      const auto [r1, r2] = quadratic_roots(2.0, b, c);
      EXPECT_NEAR((r1 + r2).real(), -b / 2.0, 1e-10) << b << " " << c;
      EXPECT_NEAR((r1 * r2).real(), c / 2.0, 1e-10) << b << " " << c;
      EXPECT_NEAR((r1 + r2).imag(), 0.0, 1e-10);
      EXPECT_NEAR((r1 * r2).imag(), 0.0, 1e-10);
    }
  }
}

}  // namespace
}  // namespace rlc::math
