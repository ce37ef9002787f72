#include "rlc/core/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace rlc::core {
namespace {

TEST(Optimizer, L0OptimumSitsBelowElmoreOptimum) {
  // Section 3.1 / Figure 5: at l = 0 the two-pole 50%-delay optimum gives a
  // slightly shorter segment than the Elmore optimum — an effect the
  // curve-fitted formulas of [21, 22] cannot predict.
  for (const auto& tech : {Technology::nm250(), Technology::nm100()}) {
    const auto rc = rc_optimum(tech);
    const auto r = optimize_rlc(tech, 0.0);
    ASSERT_TRUE(r.converged) << tech.name;
    EXPECT_LT(r.h, rc.h) << tech.name;
    EXPECT_GT(r.h, 0.8 * rc.h) << tech.name;
    EXPECT_LT(r.k, rc.k) << tech.name;
  }
}

TEST(Optimizer, ResultIsALocalMinimumOfDelayPerLength) {
  const auto tech = Technology::nm100();
  const auto line = tech.line(1.5e-6);
  const auto r = optimize_rlc(tech, 1.5e-6);
  ASSERT_TRUE(r.converged);
  const double base = delay_per_length(tech.rep, line, r.h, r.k);
  // Quadratic behaviour near the optimum: a perturbation of size eps may
  // lower the objective by at most O((residual error)^2) ~ 1e-6 relative.
  for (const double eps : {1e-3, 5e-3}) {
    EXPECT_GE(delay_per_length(tech.rep, line, r.h * (1 + eps), r.k), base * (1 - 1e-6));
    EXPECT_GE(delay_per_length(tech.rep, line, r.h * (1 - eps), r.k), base * (1 - 1e-6));
    EXPECT_GE(delay_per_length(tech.rep, line, r.h, r.k * (1 + eps)), base * (1 - 1e-6));
    EXPECT_GE(delay_per_length(tech.rep, line, r.h, r.k * (1 - eps)), base * (1 - 1e-6));
  }
  // A large perturbation must visibly hurt.
  EXPECT_GT(delay_per_length(tech.rep, line, 1.5 * r.h, r.k), base * 1.001);
}

TEST(Optimizer, StationarityResidualsVanishAtOptimum) {
  const auto tech = Technology::nm250();
  const auto r = optimize_rlc(tech, 1e-6);
  ASSERT_TRUE(r.converged);
  const auto sr = stationarity_residuals(tech.rep, tech.line(1e-6), r.h, r.k);
  ASSERT_TRUE(sr.valid);
  // Compare against the residual magnitude at a visibly suboptimal point.
  const auto far = stationarity_residuals(tech.rep, tech.line(1e-6), 1.3 * r.h,
                                          0.7 * r.k);
  ASSERT_TRUE(far.valid);
  EXPECT_LT(std::abs(sr.g1), 1e-5 * std::abs(far.g1));
  EXPECT_LT(std::abs(sr.g2), 1e-5 * std::abs(far.g2));
}

TEST(Optimizer, PaperResidualsMatchImplicitDifferentiation) {
  // g1 = 0 and g2 = 0 encode d(tau)/dh = tau/h and d(tau)/dk = 0; verify the
  // *sign structure* by finite differences of tau away from the optimum.
  const auto tech = Technology::nm100();
  const auto line = tech.line(0.8e-6);
  const double h = 0.009, k = 350.0;
  const auto tau_of = [&](double hh, double kk) {
    const auto dr = segment_delay(tech.rep, line, hh, kk);
    EXPECT_TRUE(dr.converged);
    return dr.tau;
  };
  const double dh = 1e-6 * h;
  const double dtau_dh = (tau_of(h + dh, k) - tau_of(h - dh, k)) / (2 * dh);
  const double g1_fd = dtau_dh - tau_of(h, k) / h;  // residual of Eq. (5)
  const auto sr = stationarity_residuals(tech.rep, line, h, k);
  ASSERT_TRUE(sr.valid);
  // Same zero set; compare signs (the scale differs by a positive factor
  // that depends on v'(tau) and normalization).
  EXPECT_NE(g1_fd, 0.0);
  EXPECT_NE(sr.g1, 0.0);
}

TEST(Optimizer, NewtonAndNelderMeadAgree) {
  const auto tech = Technology::nm250();
  for (double l : {0.0, 1e-6, 3e-6}) {
    OptimOptions newton_only;
    newton_only.allow_fallback = false;
    const auto a = optimize_rlc(tech, l, newton_only);
    ASSERT_TRUE(a.converged) << l;
    ASSERT_EQ(a.method, OptimMethod::kNewton);

    // Force the fallback path by making Newton give up immediately.
    OptimOptions nm_only;
    nm_only.max_iterations = 1;
    const auto b = optimize_rlc(tech, l, nm_only);
    ASSERT_TRUE(b.converged) << l;
    // Nelder-Mead terminates on simplex size, so (h, k) agreement is looser
    // than the (flat-near-optimum) objective agreement.
    EXPECT_NEAR(a.h, b.h, 1e-2 * a.h) << l;
    EXPECT_NEAR(a.k, b.k, 1e-2 * a.k) << l;
    EXPECT_NEAR(a.delay_per_length, b.delay_per_length,
                1e-5 * a.delay_per_length) << l;
  }
}

TEST(Optimizer, SweepTrendsMatchFigures5And6) {
  // h_optRLC/h_optRC grows with l; k_optRLC/k_optRC falls with l.
  const auto tech = Technology::nm100();
  std::vector<double> ls;
  for (int i = 0; i <= 10; ++i) ls.push_back(i * 0.5e-6);
  const auto rs = optimize_rlc_sweep(tech, ls);
  for (std::size_t i = 1; i < rs.size(); ++i) {
    ASSERT_TRUE(rs[i].converged) << i;
    EXPECT_GT(rs[i].h, rs[i - 1].h) << i;
    EXPECT_LT(rs[i].k, rs[i - 1].k) << i;
    EXPECT_GT(rs[i].delay_per_length, rs[i - 1].delay_per_length) << i;
  }
}

TEST(Optimizer, SweepNewtonStaysWithinPaperIterationClaim) {
  // "convergence is achieved in less than six iterations in all cases" —
  // holds with warm-started continuation along the sweep, at both paper
  // nodes, on the quick (7-point) and full (26-point) figure grids as well
  // as a 51-point one: Newton answers every point.
  for (const auto& tech : {Technology::nm250(), Technology::nm100()}) {
    for (const int points : {7, 26, 51}) {
      std::vector<double> ls;
      for (int i = 0; i < points; ++i) ls.push_back(5.0e-6 * i / (points - 1));
      const auto rs = optimize_rlc_sweep(tech, ls);
      for (std::size_t i = 0; i < rs.size(); ++i) {
        SCOPED_TRACE(tech.name + ", " + std::to_string(points) +
                     "-point grid, l index " + std::to_string(i));
        ASSERT_TRUE(rs[i].converged);
        EXPECT_EQ(rs[i].method, OptimMethod::kNewton);
        if (i > 0) {
          EXPECT_LE(rs[i].newton_iterations, 6);
        }
      }
    }
  }
}

TEST(Optimizer, KOptFlattensTowardAsymptote) {
  // Figure 6 discussion: with increasing l the optimal buffer size falls and
  // levels off toward the impedance-matched value (a slow approach — over
  // the paper's 0..5 nH/mm window we verify monotone decrease with shrinking
  // decrements, and that the optimal driver impedance rs/k grows with l as
  // the line gets more transmission-line-like).
  const auto tech = Technology::nm250();
  std::vector<double> ls;
  for (int i = 1; i <= 10; ++i) ls.push_back(i * 0.5e-6);
  const auto rs = optimize_rlc_sweep(tech, ls);
  for (std::size_t i = 1; i < ls.size(); ++i) {
    ASSERT_TRUE(rs[i].converged);
    const double drop_prev =
        (i >= 2) ? rs[i - 2].k - rs[i - 1].k : 1e18;
    const double drop = rs[i - 1].k - rs[i].k;
    EXPECT_GT(drop, 0.0) << i;                 // k keeps falling...
    EXPECT_LT(drop, drop_prev + 1e-9) << i;    // ...by ever-smaller steps
    EXPECT_GT(tech.rep.rs / rs[i].k, tech.rep.rs / rs[i - 1].k);
  }
}

TEST(Optimizer, CustomThresholdSupported) {
  // The methodology works "for any values of s1, s2 and f" — not just 50%.
  const auto tech = Technology::nm100();
  OptimOptions opts;
  opts.f = 0.9;
  const auto r = optimize_rlc(tech, 1e-6, opts);
  ASSERT_TRUE(r.converged);
  const auto line = tech.line(1e-6);
  const double base = delay_per_length(tech.rep, line, r.h, r.k, 0.9);
  EXPECT_GE(delay_per_length(tech.rep, line, 1.02 * r.h, r.k, 0.9), base);
  EXPECT_GE(delay_per_length(tech.rep, line, r.h, 1.02 * r.k, 0.9), base);
}

TEST(Optimizer, InvalidLineRejected) {
  const auto tech = Technology::nm250();
  EXPECT_THROW(optimize_rlc(tech.rep, tline::LineParams{0.0, 0.0, 1e-10}),
               std::domain_error);
}

TEST(Optimizer, ResidualsInvalidNearCriticalDamping) {
  // The pole sensitivities divide by D = sqrt(b1^2 - 4 b2); at (h, k) where
  // the segment is near-critically damped the residual evaluation must
  // refuse (valid == false) instead of returning garbage.  Locate such an h
  // by bisecting the discriminant sign change along h at fixed k.
  const auto tech = Technology::nm100();
  const auto line = tech.line(5e-6);  // strongly inductive: both regimes exist
  const double k = rc_optimum(tech).k;
  const auto disc = [&](double h) {
    const PadeCoeffs pc = pade_coeffs_hk(tech.rep, line, h, k);
    return pc.b1 * pc.b1 - 4.0 * pc.b2;
  };
  // Multiplicative scan for a damping transition.
  const double h_ref = rc_optimum(tech).h;
  double lo = 0.0, hi = 0.0;
  double prev_h = 1e-3 * h_ref;
  double prev_d = disc(prev_h);
  for (double h = prev_h * 1.25; h < 100.0 * h_ref; h *= 1.25) {
    const double d = disc(h);
    if ((prev_d > 0.0) != (d > 0.0)) {
      lo = prev_h;
      hi = h;
      break;
    }
    prev_h = h;
    prev_d = d;
  }
  ASSERT_GT(hi, 0.0) << "no damping transition found along h";
  // Bisect to the float limit; the discriminant there is far inside the
  // near-critical guard band.
  double d_lo = disc(lo);
  for (int it = 0; it < 200 && hi - lo > 0.0; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) break;
    const double d_mid = disc(mid);
    if ((d_lo > 0.0) == (d_mid > 0.0)) {
      lo = mid;
      d_lo = d_mid;
    } else {
      hi = mid;
    }
  }
  const double h_crit = 0.5 * (lo + hi);
  const auto sr = stationarity_residuals(tech.rep, line, h_crit, k);
  EXPECT_FALSE(sr.valid);
  // And optimize_rlc seeded exactly there must still not throw.
  OptimOptions opts;
  opts.h0 = h_crit;
  opts.k0 = k;
  OptimResult r;
  EXPECT_NO_THROW(r = optimize_rlc(tech.rep, line, opts));
  EXPECT_TRUE(r.converged);  // the fallback rescues the near-critical seed
}

TEST(Optimizer, NewtonDivergenceExercisesNelderMeadFallback) {
  // At the 100 nm node with l = 2 nH/mm the cold-started Newton iteration
  // genuinely diverges (the default 0.9x-Elmore seed is far outside the
  // basin in the strongly inductive regime): the Nelder-Mead fallback must
  // produce the converged answer and be labelled as such.
  const auto tech = Technology::nm100();
  const auto fb = optimize_rlc(tech, 2e-6);
  ASSERT_TRUE(fb.converged);
  EXPECT_EQ(fb.method, OptimMethod::kNelderMead);
  EXPECT_GT(fb.newton_iterations, 0);  // Newton ran first, and failed

  // Cross-check against the warm-started continuation, where Newton does
  // converge: same optimum to fallback accuracy.
  std::vector<double> ls;
  for (int i = 0; i <= 4; ++i) ls.push_back(i * 0.5e-6);
  const auto sweep = optimize_rlc_sweep(tech, ls);
  const auto& ref = sweep.back();
  ASSERT_TRUE(ref.converged);
  ASSERT_EQ(ref.method, OptimMethod::kNewton);
  EXPECT_NEAR(fb.delay_per_length, ref.delay_per_length,
              1e-5 * ref.delay_per_length);
  EXPECT_NEAR(fb.h, ref.h, 1e-2 * ref.h);
  EXPECT_NEAR(fb.k, ref.k, 1e-2 * ref.k);
}

TEST(Optimizer, FallbackDisabledReturnsUnconvergedInsteadOfThrowing) {
  const auto tech = Technology::nm250();
  OptimOptions opts;
  opts.max_iterations = 1;  // Newton cannot converge in one step
  opts.allow_fallback = false;
  OptimResult r;
  EXPECT_NO_THROW(r = optimize_rlc(tech, 1e-6, opts));
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.method, OptimMethod::kNewton);
  // The unconverged result must be inert, not half-filled.
  EXPECT_EQ(r.h, 0.0);
  EXPECT_EQ(r.k, 0.0);
  EXPECT_EQ(r.delay_per_length, 0.0);
}

}  // namespace
}  // namespace rlc::core
