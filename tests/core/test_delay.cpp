#include "rlc/core/delay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "rlc/core/technology.hpp"
#include "rlc/math/constants.hpp"
#include "rlc/math/newton.hpp"
#include "rlc/obs/metrics.hpp"
#include "support/two_pole_reference.hpp"

namespace rlc::core {
namespace {

TEST(Delay, CriticallyDampedAgainstClosedFormRoot) {
  // v(t) = 1 - (1 + a t) e^{-a t} = 0.5  =>  a t ~ 1.67835 (standard root).
  const double b1 = 2e-10;
  const TwoPole sys(PadeCoeffs{b1, b1 * b1 / 4.0});
  const auto r = threshold_delay(sys);
  ASSERT_TRUE(r.converged);
  const double alpha = 2.0 / b1;
  EXPECT_NEAR(alpha * r.tau, 1.6783469900166605, 1e-8);
}

TEST(Delay, ResidualIsZeroAtSolution) {
  const TwoPole sys(PadeCoeffs{3e-10, 1.5e-20});
  DelayOptions opts;
  opts.f = 0.7;
  const auto r = threshold_delay(sys, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(sys.step_response(r.tau), 0.7, 1e-10);
}

TEST(Delay, UnderdampedTakesFirstCrossing) {
  // Strongly underdamped: v(t) crosses f many times; the delay must be the
  // FIRST crossing, which is earlier than b1-based estimates.
  const TwoPole sys(PadeCoeffs{0.2e-10, 1e-20});
  const auto r = threshold_delay(sys);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(sys.step_response(r.tau), 0.5, 1e-10);
  // No earlier crossing: v(t) < f strictly before tau.
  for (int i = 1; i < 100; ++i) {
    const double t = r.tau * i / 100.0;
    EXPECT_LT(sys.step_response(t), 0.5);
  }
}

TEST(Delay, MonotoneInThreshold) {
  const TwoPole sys(PadeCoeffs{3e-10, 1.2e-20});
  double prev = 0.0;
  for (double f : {0.1, 0.3, 0.5, 0.63, 0.8, 0.9}) {
    DelayOptions opts;
    opts.f = f;
    const auto r = threshold_delay(sys, opts);
    ASSERT_TRUE(r.converged) << f;
    EXPECT_GT(r.tau, prev);
    prev = r.tau;
  }
}

TEST(Delay, InvalidThresholdThrows) {
  const TwoPole sys(PadeCoeffs{3e-10, 1e-20});
  DelayOptions opts;
  opts.f = 0.0;
  EXPECT_THROW(threshold_delay(sys, opts), std::domain_error);
  opts.f = 1.0;
  EXPECT_THROW(threshold_delay(sys, opts), std::domain_error);
}

TEST(Delay, FewNewtonIterations) {
  // The paper: "convergence is achieved in less than four iterations in all
  // cases" for Eq. (3).  Our safeguarded Newton includes the bracketing
  // prelude; the polish itself must stay in the same ballpark.
  const auto tech = Technology::nm100();
  for (double l : {0.0, 1e-6, 3e-6, 5e-6}) {
    const auto r = segment_delay(tech.rep, tech.line(l), 0.011, 500.0);
    ASSERT_TRUE(r.converged) << l;
    EXPECT_LE(r.newton_iterations, 60) << l;
  }
}

TEST(Delay, Delay50Convenience) {
  const TwoPole sys(PadeCoeffs{3e-10, 1e-20});
  EXPECT_NEAR(sys.step_response(delay_50(sys)), 0.5, 1e-10);
}

TEST(Delay, IncreasesWithInductanceAtFixedSizing) {
  // At the RC-optimal sizing, adding inductance slows the segment (the
  // premise of Figure 8).
  const auto tech = Technology::nm100();
  double prev = 0.0;
  for (double l : {0.0, 1e-6, 2e-6, 4e-6}) {
    const auto r = segment_delay(tech.rep, tech.line(l), 0.0111, 528.0);
    ASSERT_TRUE(r.converged);
    EXPECT_GT(r.tau, prev);
    prev = r.tau;
  }
}

// Property sweep across damping regimes: delay solve always converges and
// lands exactly on the threshold.
class DelaySweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(DelaySweep, ConvergesAndSatisfiesEquation) {
  const auto [b2_over_crit, f] = GetParam();
  const double b1 = 2.5e-10;
  const PadeCoeffs pc{b1, b2_over_crit * b1 * b1 / 4.0};
  const TwoPole sys(pc);
  DelayOptions opts;
  opts.f = f;
  const auto r = threshold_delay(sys, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(sys.step_response(r.tau), f, 1e-7);
  EXPECT_GT(r.tau, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    DampingAndThreshold, DelaySweep,
    ::testing::Combine(
        ::testing::Values(0.05, 0.5, 0.999, 1.0, 1.001, 2.0, 20.0),
        ::testing::Values(0.1, 0.5, 0.9)));

/// The forward grid walk that bracketed the crossing before the bracket was
/// found by bisection: the first i with v(i dt) >= f, walking from i = 1,
/// then the same Newton polish.  `grid_evals` counts the walk's steps.
DelayResult walk_threshold_delay(const TwoPole& sys, const DelayOptions& opts,
                                 long* grid_evals = nullptr) {
  DelayResult res;
  const double t_char = std::max(sys.b1(), std::sqrt(sys.b2()));
  const auto v = [&sys, &opts](double t) { return sys.step_response(t) - opts.f; };
  const int kStepsPerChar = 64;
  const double dt = t_char / kStepsPerChar;
  double lo = 0.0, hi = 0.0;
  bool bracketed = false;
  const long max_steps = 200L * kStepsPerChar;
  double prev_t = 0.0;
  long i = 1;
  for (; i <= max_steps; ++i) {
    const double t = dt * static_cast<double>(i);
    if (v(t) >= 0.0) {
      lo = prev_t;
      hi = t;
      bracketed = true;
      break;
    }
    prev_t = t;
  }
  if (grid_evals != nullptr) *grid_evals = std::min(i, max_steps);
  if (!bracketed) return res;
  rlc::math::NewtonOptions nopts;
  nopts.max_iterations = opts.max_iterations;
  nopts.f_tolerance = 1e-14;
  nopts.x_tolerance = opts.rel_tolerance;
  const auto sol = rlc::math::newton_bisect_scalar(
      v, [&sys](double t) { return sys.step_response_derivative(t); }, lo, hi,
      nopts);
  res.tau = sol.x;
  res.newton_iterations = sol.iterations;
  res.converged = sol.converged;
  return res;
}

/// The extremes both bracket tests sweep: b1 over 1e-15..1e-6 s; zeta =
/// b1 / (2 sqrt(b2)) log-spaced over 1e-4..1e4 plus points within
/// 1e-16..1e-1 of critical damping on both sides, reaching both sides of
/// the confluent-series switch (|zeta - 1| of about 1e-15); f from 1e-12
/// to 1 - 1e-12.
const double kExtremeFs[] = {1e-12, 1e-6, 0.1, 0.4, 0.5, 0.7, 0.9,
                             1.0 - 1e-6, 1.0 - 1e-12};

std::vector<double> extreme_b1s() {
  std::vector<double> b1s;
  for (int eb = -15; eb <= -6; ++eb) {
    for (const double mb : {1.0, 3.0}) {
      const double b1 = mb * std::pow(10.0, eb);
      if (b1 <= 1e-6) b1s.push_back(b1);
    }
  }
  return b1s;
}

std::vector<double> extreme_zetas() {
  std::vector<double> zetas;
  for (int e = -16; e <= 16; ++e) zetas.push_back(std::pow(10.0, e / 4.0));
  zetas.push_back(1.0);
  for (int e = -16; e <= -1; ++e) {
    for (const double m : {1.0, 3.0}) {
      const double d = m * std::pow(10.0, e);
      if (d >= 0.2) continue;
      zetas.push_back(1.0 - d);
      zetas.push_back(1.0 + d);
    }
  }
  return zetas;
}

/// Same tau bits, iteration count and converged flag.
bool same_result(const DelayResult& a, const DelayResult& b) {
  return std::bit_cast<std::uint64_t>(a.tau) ==
             std::bit_cast<std::uint64_t>(b.tau) &&
         a.newton_iterations == b.newton_iterations &&
         a.converged == b.converged;
}

TEST(DelayBracket, BisectionMatchesTheForwardWalkBitwise) {
  int cases = 0, mismatches = 0, confluent = 0, near_critical = 0;
  const std::vector<double> zetas = extreme_zetas();
  for (const double b1 : extreme_b1s()) {
    for (const double zeta : zetas) {
      const double sb2 = b1 / (2.0 * zeta);
      const TwoPole sys(PadeCoeffs{b1, sb2 * sb2});
      if (uses_confluent_series(sys)) {
        ++confluent;
      } else if (std::abs(zeta - 1.0) < 1e-12) {
        ++near_critical;
      }
      for (const double f : kExtremeFs) {
        DelayOptions opts;
        opts.f = f;
        const DelayResult want = walk_threshold_delay(sys, opts);
        const DelayResult got = threshold_delay(sys, opts);
        ++cases;
        if (same_result(got, want)) continue;
        if (++mismatches <= 5) {
          ADD_FAILURE() << "b1 " << b1 << " zeta " << zeta << " f " << f
                        << ": tau " << got.tau << " vs walk " << want.tau
                        << ", iterations " << got.newton_iterations << " vs "
                        << want.newton_iterations << ", converged "
                        << got.converged << " vs " << want.converged;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << cases << " cases";
  // Both branches of the step response near critical damping were swept.
  EXPECT_GT(confluent, 0);
  EXPECT_GT(near_critical, 0);
}

/// The sweep of the start tests: check(sys, b1, zeta, f) on the extremes,
/// then on seeded random (b1, zeta, f) draws over the same ranges, 100,000
/// systems in all.
template <class Check>
void sweep_start_cases(Check&& check) {
  int cases = 0;
  const auto run = [&](double b1, double zeta, double f) {
    const double sb2 = b1 / (2.0 * zeta);
    check(TwoPole(PadeCoeffs{b1, sb2 * sb2}), b1, zeta, f);
    ++cases;
  };
  const std::vector<double> zetas = extreme_zetas();
  for (const double b1 : extreme_b1s()) {
    for (const double zeta : zetas) {
      for (const double f : kExtremeFs) run(b1, zeta, f);
    }
  }
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  while (cases < 100000) {
    const double b1 = std::pow(10.0, -15.0 + 9.0 * u(rng));
    // Half log-uniform over 1e-4..1e4, half within 1e-16..1e-1 of 1.
    const double zeta =
        u(rng) < 0.5 ? std::pow(10.0, -4.0 + 8.0 * u(rng))
                     : 1.0 + (u(rng) < 0.5 ? -1.0 : 1.0) *
                                 std::pow(10.0, -16.0 + 15.0 * u(rng));
    const double f = u(rng) < 0.9 ? u(rng) : std::pow(10.0, -12.0 * u(rng));
    if (!(f > 0.0 && f < 1.0)) continue;
    run(b1, zeta, f);
  }
}

TEST(DelayBracket, EstimateStartedSearchMatchesTheBisectionBitwise) {
  // The search from the closed-form estimate must return the bracket, and
  // so the tau, of the reference that bisects the whole index range with
  // the complex-form step response.
  int cases = 0, mismatches = 0, confluent = 0, underdamped = 0;
  sweep_start_cases([&](const TwoPole& sys, double b1, double zeta, double f) {
    if (uses_confluent_series(sys)) ++confluent;
    if (sys.damped_frequency() > 0.0) ++underdamped;
    DelayOptions opts;
    opts.f = f;
    const DelayResult want = reference_threshold_delay(sys, opts);
    const DelayResult got = threshold_delay(sys, opts);
    ++cases;
    if (same_result(got, want)) return;
    if (++mismatches <= 5) {
      ADD_FAILURE() << "b1 " << b1 << " zeta " << zeta << " f " << f
                    << ": tau " << got.tau << " vs " << want.tau
                    << ", iterations " << got.newton_iterations << " vs "
                    << want.newton_iterations << ", converged "
                    << got.converged << " vs " << want.converged;
    }
  });
  EXPECT_EQ(mismatches, 0) << "of " << cases << " cases";
  EXPECT_GT(confluent, 0);
  EXPECT_GT(underdamped, cases / 4);
}

TEST(DelayBracket, NearStartedSearchMatchesTheEstimateBitwise) {
  // The bracket is the unique first grid crossing below the first peak, so
  // a search started at any near_tau must return the estimate-started
  // solve's tau bits, iterations and convergence: from close and far
  // multiples of the true tau, from a start past the peak (clamped to its
  // index), and from the values that keep the estimate (zero, negative,
  // NaN, +-inf).
  const double kInf = std::numeric_limits<double>::infinity();
  const double kFactors[] = {1.0,  1.0 + 1e-6, 1.0 - 1e-6, 1.0 + 1e-2,
                             1.0 - 1e-2, 0.5, 1.5, 10.0, 11.0, 1e6, 1e-6};
  int cases = 0, starts = 0, mismatches = 0, past_peak = 0, below = 0,
      above = 0;
  sweep_start_cases([&](const TwoPole& sys, double b1, double zeta, double f) {
    DelayOptions opts;
    opts.f = f;
    const DelayResult want = threshold_delay(sys, opts);
    ++cases;
    std::vector<double> near = {0.0, -want.tau, -1.0, std::nan(""), kInf,
                                -kInf};
    for (const double m : kFactors) near.push_back(m * want.tau);
    const double wd = sys.damped_frequency();
    if (wd > 0.0) {
      near.push_back(1.5 * rlc::math::kPi / wd);
      ++past_peak;
    }
    for (const double start : near) {
      const DelayResult got = threshold_delay(sys, opts, start);
      ++starts;
      if (start > 0.0 && start < want.tau) ++below;
      if (start > want.tau && std::isfinite(start)) ++above;
      if (same_result(got, want)) continue;
      if (++mismatches <= 5) {
        ADD_FAILURE() << "b1 " << b1 << " zeta " << zeta << " f " << f
                      << " near_tau " << start << ": tau " << got.tau
                      << " vs " << want.tau << ", iterations "
                      << got.newton_iterations << " vs "
                      << want.newton_iterations << ", converged "
                      << got.converged << " vs " << want.converged;
      }
    }
  });
  EXPECT_EQ(mismatches, 0) << "of " << starts << " starts";
  EXPECT_EQ(cases, 100000);
  // Starts on both sides of the crossing and past the peak were taken.
  EXPECT_GT(past_peak, cases / 4);
  EXPECT_GT(below, cases);
  EXPECT_GT(above, cases);
}

/// delay.step_evals added by one threshold_delay call.
std::int64_t step_evals_of(const TwoPole& sys, const DelayOptions& opts,
                           double near_tau = 0.0) {
  auto& reg = rlc::obs::Registry::global();
  const auto count = [&reg] {
    for (const auto& [name, value] : reg.snapshot().counters) {
      if (name == "delay.step_evals") return value;
    }
    return std::int64_t{0};
  };
  const std::int64_t before = count();
  EXPECT_TRUE(threshold_delay(sys, opts, near_tau).converged);
  return count() - before;
}

TEST(DelayBracket, StepEvaluationsPerSolveArePinned) {
  // One count per t at which the response is evaluated: the estimate
  // (v and v' at one t), the two bracket ends, the galloping and bisection
  // steps if the estimate's grid index misses the crossing (the
  // underdamped case here), then the polish: the midpoint and one t per
  // further Newton iteration, whose v' comes with that t's v (4
  // iterations each here).  A search started at the crossing itself skips
  // the estimate and finds the bracket at once: the two bracket ends, then
  // the same polish.  The bisection reference evaluates v at the top
  // of its range and at each of its 8-14 steps, then v at both bracket
  // ends, and v and v' separately in the polish; the walk evaluates v once
  // per grid step up to the crossing.
  struct Case {
    const char* name;
    PadeCoeffs pc;
    std::int64_t evals;
    std::int64_t near_evals;  ///< started at the solved tau
  };
  const double b1 = 2e-10;
  const Case cases[] = {
      {"overdamped", PadeCoeffs{b1, 0.1 * b1 * b1 / 4.0}, 7, 6},
      {"underdamped", PadeCoeffs{b1, b1 * b1}, 11, 6},
      {"confluent", PadeCoeffs{b1, b1 * b1 / 4.0}, 7, 6},
  };
  for (const Case& c : cases) {
    const TwoPole sys(c.pc);
    ASSERT_EQ(uses_confluent_series(sys), std::string(c.name) == "confluent");
    DelayOptions opts;
    EXPECT_EQ(step_evals_of(sys, opts), c.evals) << c.name;
    EXPECT_EQ(step_evals_of(sys, opts, threshold_delay(sys, opts).tau),
              c.near_evals)
        << c.name;
    long bisection = 0;
    (void)reference_threshold_delay(sys, opts, &bisection);
    EXPECT_LT(c.evals, bisection) << c.name;
    long walk = 0;
    (void)walk_threshold_delay(sys, opts, &walk);
    EXPECT_LT(c.evals, walk) << c.name;
  }
}

}  // namespace
}  // namespace rlc::core
