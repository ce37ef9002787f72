#include "rlc/core/two_pole.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "rlc/math/constants.hpp"
#include "support/two_pole_reference.hpp"

namespace rlc::core {
namespace {

TEST(TwoPole, RejectsNonPassiveCoefficients) {
  EXPECT_THROW(TwoPole(PadeCoeffs{0.0, 1e-20}), std::domain_error);
  EXPECT_THROW(TwoPole(PadeCoeffs{1e-10, 0.0}), std::domain_error);
  EXPECT_THROW(TwoPole(PadeCoeffs{-1e-10, 1e-20}), std::domain_error);
}

TEST(TwoPole, DampingClassification) {
  // disc = b1^2 - 4 b2.
  EXPECT_EQ(TwoPole(PadeCoeffs{4e-10, 1e-20}).damping(), Damping::kOverdamped);
  EXPECT_EQ(TwoPole(PadeCoeffs{2e-10, 1e-20}).damping(),
            Damping::kCriticallyDamped);
  EXPECT_EQ(TwoPole(PadeCoeffs{1e-10, 1e-20}).damping(), Damping::kUnderdamped);
}

TEST(TwoPole, PolesSatisfyCharacteristicEquation) {
  for (const PadeCoeffs pc : {PadeCoeffs{4e-10, 1e-20}, PadeCoeffs{1e-10, 1e-20}}) {
    const TwoPole sys(pc);
    for (const auto s : {sys.s1(), sys.s2()}) {
      const auto resid = pc.b2 * s * s + pc.b1 * s + 1.0;
      EXPECT_NEAR(std::abs(resid), 0.0, 1e-9);
    }
    // Poles in the open left half plane (stable).
    EXPECT_LT(sys.s1().real(), 0.0);
    EXPECT_LT(sys.s2().real(), 0.0);
  }
}

TEST(TwoPole, StepResponseBoundaryValues) {
  const TwoPole sys(PadeCoeffs{3e-10, 1e-20});
  EXPECT_DOUBLE_EQ(sys.step_response(0.0), 0.0);
  EXPECT_DOUBLE_EQ(sys.step_response(-1e-9), 0.0);
  EXPECT_NEAR(sys.step_response(1e-7), 1.0, 1e-9);  // settles to the rail
}

TEST(TwoPole, OverdampedIsMonotonic) {
  const TwoPole sys(PadeCoeffs{5e-10, 1e-20});
  double prev = 0.0;
  for (int i = 1; i <= 300; ++i) {
    const double v = sys.step_response(i * 1e-11);
    EXPECT_GE(v, prev - 1e-12);
    prev = v;
  }
  EXPECT_LE(prev, 1.0 + 1e-9);
}

TEST(TwoPole, UnderdampedOvershootMatchesClosedForm) {
  // zeta = b1/(2 sqrt(b2)); peak value = 1 + exp(-zeta pi / sqrt(1 - zeta^2)).
  const TwoPole sys(PadeCoeffs{1e-10, 1e-20});
  const double zeta = sys.damping_ratio();
  ASSERT_LT(zeta, 1.0);
  double vmax = 0.0;
  for (int i = 1; i <= 4000; ++i) {
    vmax = std::max(vmax, sys.step_response(i * 2.5e-13));
  }
  const double expected =
      1.0 + std::exp(-zeta * rlc::math::kPi / std::sqrt(1.0 - zeta * zeta));
  EXPECT_NEAR(vmax, expected, 2e-4);
  EXPECT_NEAR(sys.overshoot(), expected - 1.0, 1e-12);
}

TEST(TwoPole, UndershootMatchesSampledMinimumAfterPeak) {
  const TwoPole sys(PadeCoeffs{0.8e-10, 1e-20});
  const double wd = sys.damped_frequency();
  ASSERT_GT(wd, 0.0);
  // First minimum at t = 2 pi / wd.
  const double tmin = 2.0 * rlc::math::kPi / wd;
  EXPECT_NEAR(1.0 - sys.step_response(tmin), sys.undershoot(), 1e-9);
}

TEST(TwoPole, DerivativeMatchesFiniteDifference) {
  for (const PadeCoeffs pc : {PadeCoeffs{5e-10, 1e-20}, PadeCoeffs{1e-10, 1e-20}}) {
    const TwoPole sys(pc);
    for (double t : {2e-11, 1e-10, 5e-10}) {
      const double dt = 1e-15;
      const double fd =
          (sys.step_response(t + dt) - sys.step_response(t - dt)) / (2.0 * dt);
      EXPECT_NEAR(sys.step_response_derivative(t), fd,
                  1e-5 * std::abs(fd) + 1e-3);
    }
  }
}

TEST(TwoPole, NearCriticalSeriesIsContinuous) {
  // Step response must vary smoothly as the discriminant crosses zero.
  const double b1 = 2e-10;
  const double b2c = b1 * b1 / 4.0;
  const double t = 1.5e-10;
  const double v_minus = TwoPole(PadeCoeffs{b1, b2c * (1.0 - 1e-9)}).step_response(t);
  const double v_exact = TwoPole(PadeCoeffs{b1, b2c}).step_response(t);
  const double v_plus = TwoPole(PadeCoeffs{b1, b2c * (1.0 + 1e-9)}).step_response(t);
  EXPECT_NEAR(v_minus, v_exact, 1e-7);
  EXPECT_NEAR(v_plus, v_exact, 1e-7);
}

TEST(TwoPole, CriticallyDampedClosedForm) {
  // v(t) = 1 - (1 + alpha t) exp(-alpha t) with alpha = 2/b1.
  const double b1 = 2e-10;
  const TwoPole sys(PadeCoeffs{b1, b1 * b1 / 4.0});
  const double alpha = 2.0 / b1;
  for (double t : {5e-11, 2e-10, 8e-10}) {
    const double expect = 1.0 - (1.0 + alpha * t) * std::exp(-alpha * t);
    EXPECT_NEAR(sys.step_response(t), expect, 1e-9);
  }
}

TEST(TwoPole, FrequenciesAndRatios) {
  const TwoPole sys(PadeCoeffs{1e-10, 1e-20});
  EXPECT_NEAR(sys.natural_frequency(), 1e10, 1e-3);
  EXPECT_NEAR(sys.damping_ratio(), 0.5, 1e-12);
  // wd = wn sqrt(1 - zeta^2)
  EXPECT_NEAR(sys.damped_frequency(), 1e10 * std::sqrt(0.75), 1e4);
  // Overdamped: no oscillation, no overshoot.
  const TwoPole od(PadeCoeffs{5e-10, 1e-20});
  EXPECT_DOUBLE_EQ(od.damped_frequency(), 0.0);
  EXPECT_DOUBLE_EQ(od.overshoot(), 0.0);
  EXPECT_DOUBLE_EQ(od.undershoot(), 0.0);
}

TEST(TwoPole, StepResponseIsTheTwoExponentialFormulaBitwise) {
  // step_response and its derivative take exp(s2 t) as conj(exp(s1 t)) for
  // complex poles and decide the confluent branch once per system; both
  // must return exactly what the two-exponential formula returns.  A libm
  // whose cexp is not conjugate-symmetric fails here.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const double b1 = 2e-10;
  const double b2c = b1 * b1 / 4.0;  // critical damping
  int complex_systems = 0;
  for (const double ratio : {1e-6, 0.01, 0.3, 0.9, 1.0 + 1e-12, 4.0, 1e4,
                             1.0 - 1e-10, 1.0 - 1e-4, 1.0 + 1e-10, 0.999,
                             1.001, 20.0, 1e6}) {
    const TwoPole sys(PadeCoeffs{b1, ratio * b2c});
    const std::complex<double> s1 = sys.s1(), s2 = sys.s2();
    if (std::abs(s2 - s1) <= 1e-7 * 0.5 * (std::abs(s1) + std::abs(s2))) {
      continue;  // confluent series, not the two-exponential formula
    }
    if (s1.imag() != 0.0) ++complex_systems;
    const double t_char = std::max(sys.b1(), std::sqrt(sys.b2()));
    for (int i = 1; i <= 2000; ++i) {
      const double t = t_char * 1e-3 * std::pow(2e5, i / 2000.0);
      const std::complex<double> e1 = std::exp(s1 * t);
      const std::complex<double> e2 = std::exp(s2 * t);
      if (s1.imag() != 0.0) {
        ASSERT_EQ(e2, std::conj(e1)) << "ratio " << ratio << " t " << t;
      }
      const double v = (1.0 - (s2 * e1 - s1 * e2) / (s2 - s1)).real();
      const double dv = (s1 * s2 * (e2 - e1) / (s2 - s1)).real();
      ASSERT_EQ(bits(sys.step_response(t)), bits(v))
          << "ratio " << ratio << " t " << t;
      ASSERT_EQ(bits(sys.step_response_derivative(t)), bits(dv))
          << "ratio " << ratio << " t " << t;
    }
  }
  EXPECT_GE(complex_systems, 4);
}

TEST(TwoPole, StepPointReplaysTheComplexFormBitwise) {
  // step_point's real arithmetic against the complex two-exponential form
  // (and the confluent series) kept in tests/support: seeded (b1, zeta)
  // systems covering real, conjugate and confluent poles, each at t = 0 and
  // 2000 log-spaced times over 1e-3..2e2 characteristic times.  v, v' and
  // the two one-value accessors must all give the reference's bits.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  long cases = 0, mismatches = 0;
  int real = 0, conjugate = 0, confluent = 0;
  for (int system = 0; system < 500; ++system) {
    const double b1 = std::pow(10.0, -15.0 + 9.0 * u(rng));
    double zeta;
    switch (system % 4) {
      case 0:  // log-uniform over 1e-4..1e4
        zeta = std::pow(10.0, -4.0 + 8.0 * u(rng));
        break;
      case 1:  // near critical damping, both sides
        zeta = 1.0 + (u(rng) < 0.5 ? -1.0 : 1.0) *
                         std::pow(10.0, -14.0 + 13.0 * u(rng));
        break;
      case 2:  // within a few ulps of 1: the confluent series
        zeta = 1.0 + static_cast<double>(static_cast<int>(u(rng) * 9.0) - 4) *
                         std::numeric_limits<double>::epsilon();
        break;
      default:  // underdamped
        zeta = 0.999 * u(rng) + 1e-4;
        break;
    }
    const double sb2 = b1 / (2.0 * zeta);
    const TwoPole sys(PadeCoeffs{b1, sb2 * sb2});
    if (uses_confluent_series(sys)) {
      ++confluent;
    } else if (sys.s1().imag() != 0.0) {
      ++conjugate;
    } else {
      ++real;
    }
    const double t_char = std::max(sys.b1(), std::sqrt(sys.b2()));
    for (int i = -1; i < 2000; ++i) {
      const double t =
          i < 0 ? 0.0 : t_char * 1e-3 * std::pow(2e5, i / 1999.0);
      const TwoPole::Point p = sys.step_point(t);
      const double v = reference_step_response(sys, t);
      const double dv = reference_step_response_derivative(sys, t);
      ++cases;
      if (bits(p.v) == bits(v) && bits(p.dv) == bits(dv) &&
          bits(sys.step_response(t)) == bits(v) &&
          bits(sys.step_response_derivative(t)) == bits(dv)) {
        continue;
      }
      if (++mismatches <= 5) {
        ADD_FAILURE() << "b1 " << b1 << " zeta " << zeta << " t " << t
                      << ": v " << p.v << " vs " << v << ", v' " << p.dv
                      << " vs " << dv;
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << cases << " cases";
  EXPECT_GE(cases, 1000000);
  EXPECT_GT(real, 50);
  EXPECT_GT(conjugate, 50);
  EXPECT_GT(confluent, 50);
}

TEST(TwoPole, ConfluentDecisionMatchesTheHypotTest) {
  // TwoPole decides the confluent branch from the poles' parts and takes
  // the hypot test |s2 - s1| <= 1e-7 (|s1| + |s2|) / 2 only near its
  // tolerance; the decision must be the hypot test's on real and conjugate
  // pole pairs at relative separations 1e-9..1e-5, log-spaced and packed
  // around 1e-7, at several pole magnitudes.
  int cases = 0, mismatches = 0, near_tolerance = 0;
  int confluent[2] = {0, 0}, distinct[2] = {0, 0};  // [real, conjugate]
  std::vector<double> seps;
  for (int j = 0; j <= 4000; ++j) seps.push_back(std::pow(10.0, -9.0 + j / 1000.0));
  for (int j = -2000; j <= 2000; ++j) seps.push_back(1e-7 * (1.0 + j * 5e-4));
  for (const double a : {3.7e6, 1e9, 2.9e11, 1e13}) {
    for (const double sep : seps) {
      for (const bool conjugate : {false, true}) {
        // b2 s^2 + b1 s + 1 = b2 (s - s1)(s - s2), poles sep a apart around
        // -a: b2 = 1 / (s1 s2), b1 = -(s1 + s2) b2.
        double b1, b2;
        if (conjugate) {
          b2 = 1.0 / (a * a * (1.0 + 0.25 * sep * sep));
          b1 = 2.0 * a * b2;
        } else {
          b2 = 1.0 / (a * (1.0 - 0.5 * sep) * a * (1.0 + 0.5 * sep));
          b1 = 2.0 * a * b2;
        }
        const TwoPole sys(PadeCoeffs{b1, b2});
        const bool want = uses_confluent_series(sys);
        const double rel = std::abs(sys.s2() - sys.s1()) /
                           (0.5 * (std::abs(sys.s1()) + std::abs(sys.s2())));
        if (rel > 0.25e-7 && rel < 4e-7) ++near_tolerance;
        const int kind = sys.s1().imag() != 0.0 ? 1 : 0;
        ++(want ? confluent : distinct)[kind];
        ++cases;
        if (sys.confluent() == want) continue;
        if (++mismatches <= 5) {
          ADD_FAILURE() << "a " << a << " sep " << sep << " conjugate "
                        << conjugate << ": relative separation " << rel
                        << ", confluent " << sys.confluent() << " vs "
                        << want;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << cases << " cases";
  // Both pole kinds fell on both sides of the tolerance, many of them close
  // to it, where only the hypot test decides.
  EXPECT_GT(confluent[0], 100);
  EXPECT_GT(confluent[1], 100);
  EXPECT_GT(distinct[0], 100);
  EXPECT_GT(distinct[1], 100);
  EXPECT_GT(near_tolerance, 10000);
}

}  // namespace
}  // namespace rlc::core
