#include "rlc/math/brent.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace rlc::math {
namespace {

TEST(BrentRoot, Polynomial) {
  const auto f = [](double x) { return (x - 1.0) * (x + 2.0) * (x - 3.5); };
  const auto r = brent_root(f, 0.0, 2.0);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 1.0, 1e-12);
}

TEST(BrentRoot, EndpointRoot) {
  const auto f = [](double x) { return x; };
  const auto r = brent_root(f, 0.0, 1.0);
  ASSERT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.x, 0.0);
}

TEST(BrentRoot, NoSignChangeFails) {
  const auto f = [](double x) { return x * x + 1.0; };
  EXPECT_FALSE(brent_root(f, -1.0, 1.0).converged);
}

TEST(BrentRoot, SteepFunction) {
  const auto f = [](double x) { return std::tanh(1e4 * (x - 0.123)); };
  const auto r = brent_root(f, 0.0, 1.0);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.123, 1e-9);
}

TEST(BrentMinimize, Parabola) {
  const auto f = [](double x) { return (x - 2.5) * (x - 2.5) + 7.0; };
  const auto r = brent_minimize(f, 0.0, 10.0);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 2.5, 1e-7);
  EXPECT_NEAR(r.fx, 7.0, 1e-12);
}

TEST(BrentMinimize, AsymmetricValley) {
  const auto f = [](double x) { return std::exp(x) - 3.0 * x; };  // min at ln 3
  const auto r = brent_minimize(f, 0.0, 3.0);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.x, std::log(3.0), 1e-7);
}

}  // namespace
}  // namespace rlc::math
