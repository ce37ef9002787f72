#include "rlc/math/newton.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace rlc::math {
namespace {

TEST(NewtonBisect, FindsRootWithinBracket) {
  const auto f = [](double x) { return std::cos(x) - x; };
  const auto fp = [](double x) { return -std::sin(x) - 1.0; };
  const auto r = newton_bisect_scalar(f, fp, 0.0, 1.5);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.7390851332151607, 1e-10);
}

TEST(NewtonBisect, RejectsBadBracket) {
  const auto f = [](double x) { return x * x + 1.0; };
  const auto fp = [](double x) { return 2.0 * x; };
  const auto r = newton_bisect_scalar(f, fp, -1.0, 1.0);
  EXPECT_FALSE(r.converged);
}

TEST(NewtonBisect, SurvivesPathologicalDerivative) {
  // Derivative callback lies (returns 0); solver must fall back to bisection.
  const auto f = [](double x) { return x - 0.25; };
  const auto fp = [](double) { return 0.0; };
  const auto r = newton_bisect_scalar(f, fp, 0.0, 1.0);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.25, 1e-9);
}

TEST(Newton2D, SolvesCoupledSystem) {
  // x^2 + y^2 = 4, x*y = 1.
  const Fn2 f = [](const std::array<double, 2>& v) {
    return std::array<double, 2>{v[0] * v[0] + v[1] * v[1] - 4.0,
                                 v[0] * v[1] - 1.0};
  };
  const Jac2 j = [](const std::array<double, 2>& v) {
    return std::array<std::array<double, 2>, 2>{
        std::array<double, 2>{2.0 * v[0], 2.0 * v[1]},
        std::array<double, 2>{v[1], v[0]}};
  };
  const auto r = newton_2d(f, j, {2.0, 0.3});
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0] * r.x[0] + r.x[1] * r.x[1], 4.0, 1e-9);
  EXPECT_NEAR(r.x[0] * r.x[1], 1.0, 1e-9);
}

TEST(Newton2D, FdJacobianMatchesAnalytic) {
  const Fn2 f = [](const std::array<double, 2>& v) {
    return std::array<double, 2>{std::exp(v[0]) - v[1],
                                 v[0] * v[0] + std::sin(v[1])};
  };
  const auto jfd = fd_jacobian_2d(f);
  const std::array<double, 2> x{0.7, -0.3};
  const auto J = jfd(x);
  EXPECT_NEAR(J[0][0], std::exp(0.7), 1e-6);
  EXPECT_NEAR(J[0][1], -1.0, 1e-6);
  EXPECT_NEAR(J[1][0], 2.0 * 0.7, 1e-6);
  EXPECT_NEAR(J[1][1], std::cos(-0.3), 1e-6);
}

TEST(Newton2D, RespectsLowerBounds) {
  // Root at (-1, -1) but bounds keep the iterate positive; the solve must
  // not converge to the out-of-bounds root and must never go non-positive.
  const Fn2 f = [](const std::array<double, 2>& v) {
    return std::array<double, 2>{v[0] + 1.0, v[1] + 1.0};
  };
  const auto r = newton_2d(f, fd_jacobian_2d(f), {1.0, 1.0}, {},
                           std::array<double, 2>{0.0, 0.0});
  EXPECT_FALSE(r.converged);
  EXPECT_GT(r.x[0], 0.0);
  EXPECT_GT(r.x[1], 0.0);
}

}  // namespace
}  // namespace rlc::math
