#include "rlc/core/exact_delay.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "rlc/core/delay.hpp"
#include "rlc/core/elmore.hpp"
#include "rlc/exec/thread_pool.hpp"
#include "rlc/laplace/talbot.hpp"
#include "rlc/obs/metrics.hpp"
#include "rlc/tline/batch_evaluator.hpp"

namespace rlc::core {
namespace {

TEST(ExactDelay, StepResponseMonotoneEndpoints) {
  const auto tech = Technology::nm250();
  const auto rc = rc_optimum(tech);
  const auto dl = tech.rep.scaled(rc.k);
  const auto est = segment_delay(tech.rep, tech.line(1e-6), rc.h, rc.k);
  const auto v = exact_step_response(tech.line(1e-6), rc.h, dl,
                                     {0.1 * est.tau, est.tau, 8.0 * est.tau});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_LT(v[0], 0.3);           // barely started
  EXPECT_NEAR(v[2], 1.0, 5e-3);   // settled to the rail
  EXPECT_GT(v[1], v[0]);
}

TEST(ExactDelay, AgreesWithTwoPoleAtLowInductance) {
  const auto tech = Technology::nm250();
  const auto rc = rc_optimum(tech);
  const auto est = segment_delay(tech.rep, tech.line(0.0), rc.h, rc.k);
  const auto ex = exact_threshold_delay(tech, 0.0, rc.h, rc.k, est.tau);
  ASSERT_TRUE(ex.has_value());
  EXPECT_NEAR(*ex, est.tau, 0.05 * est.tau);
}

TEST(ExactDelay, ThresholdMonotoneInF) {
  const auto tech = Technology::nm100();
  const auto rc = rc_optimum(tech);
  const auto est = segment_delay(tech.rep, tech.line(1e-6), rc.h, rc.k);
  const auto t25 = exact_threshold_delay(tech, 1e-6, rc.h, rc.k, est.tau, 0.25);
  const auto t50 = exact_threshold_delay(tech, 1e-6, rc.h, rc.k, est.tau, 0.50);
  const auto t75 = exact_threshold_delay(tech, 1e-6, rc.h, rc.k, est.tau, 0.75);
  ASSERT_TRUE(t25 && t50 && t75);
  EXPECT_LT(*t25, *t50);
  EXPECT_LT(*t50, *t75);
}

TEST(ExactDelay, Validation) {
  const auto tech = Technology::nm100();
  const auto rc = rc_optimum(tech);
  EXPECT_THROW(
      exact_threshold_delay(tech, 1e-6, rc.h, rc.k, rc.tau, /*f=*/1.5),
      std::domain_error);
  EXPECT_THROW(exact_threshold_delay(tech, 1e-6, rc.h, rc.k, /*scale=*/0.0),
               std::domain_error);
  // Window that misses the crossing (everything already settled at the
  // lower edge): nullopt rather than a bogus root.
  const auto est = segment_delay(tech.rep, tech.line(1e-6), rc.h, rc.k);
  EXPECT_FALSE(
      exact_threshold_delay(tech, 1e-6, rc.h, rc.k, 1e3 * est.tau).has_value());
}

// ---- Fast exact-waveform engine vs the legacy per-t reference. ----

struct EngineCase {
  Technology tech;
  double l = 0.0, h = 0.0, k = 0.0, tau = 0.0;
};

EngineCase engine_case(const Technology& tech, double l) {
  EngineCase c{tech, l, 0.0, 0.0, 0.0};
  const auto rc = rc_optimum(tech);
  c.h = rc.h;
  c.k = rc.k;
  c.tau = segment_delay(tech.rep, tech.line(l), rc.h, rc.k).tau;
  return c;
}

/// The registry counter `name` now (0 before its first use).
std::int64_t counter_value(const std::string& name) {
  const auto snapshot = rlc::obs::Registry::global().snapshot();
  for (const auto& [n, value] : snapshot.counters) {
    if (n == name) return value;
  }
  return 0;
}

TEST(ExactEngine, MatchesLegacyWithTenfoldFewerTransferEvals) {
  // The PR's acceptance pair, asserted structurally (eval counts are
  // deterministic, unlike wall time): the engine agrees with the legacy
  // bisection to 1e-3 relative while spending at most a tenth of its
  // Eq. (1) evaluations.  Both technology nodes, RC and ringing RLC.
  for (const auto& tech : {Technology::nm250(), Technology::nm100()}) {
    for (double l : {0.0, 1e-6, 3e-6}) {
      const auto c = engine_case(tech, l);
      ExactOptions legacy;
      legacy.legacy_bisection = true;
      ExactStats ls, es;
      const auto d_legacy =
          exact_threshold_delay(c.tech, c.l, c.h, c.k, c.tau, 0.5, legacy, &ls);
      const std::int64_t contours_before = counter_value("talbot.contours");
      const auto d_engine = exact_threshold_delay(c.tech, c.l, c.h, c.k, c.tau,
                                                  0.5, ExactOptions{}, &es);
      const std::int64_t windows =
          counter_value("talbot.contours") - contours_before;
      ASSERT_TRUE(d_legacy.has_value()) << tech.name << " l = " << l;
      ASSERT_TRUE(d_engine.has_value()) << tech.name << " l = " << l;
      EXPECT_NEAR(*d_engine, *d_legacy, 1e-3 * *d_legacy)
          << tech.name << " l = " << l;
      EXPECT_LE(es.transfer_evals * 10, ls.transfer_evals)
          << tech.name << " l = " << l << ": engine " << es.transfer_evals
          << " evals vs legacy " << ls.transfer_evals;
      EXPECT_EQ(es.legacy_fallbacks, 0) << tech.name << " l = " << l;
      EXPECT_GT(windows, 0) << tech.name << " l = " << l;
    }
  }
}

/// The legacy bisection as a fixed 60-iteration loop with no early exit,
/// probing the per-t Talbot inversion of the batch evaluator's step
/// transform over the engine's search window (0.02..8 x tau_scale).
/// `collapse_probes` receives the number of probes made before the
/// midpoint first equals an endpoint.
std::optional<double> fixed_loop_bisection(const tline::LineParams& line,
                                           double h,
                                           const tline::DriverLoad& dl,
                                           double tau_scale, double f,
                                           int talbot_points,
                                           int* collapse_probes) {
  const tline::BatchTransferEvaluator ev(line, h, dl);
  const auto step = [&ev](const double* sr, const double* si, double* fr,
                          double* fi, std::size_t n) {
    ev.step(sr, si, fr, fi, n);
  };
  const auto v = [&](double t) {
    return rlc::laplace::talbot_invert(rlc::laplace::BatchLaplaceFnRef(step),
                                       t, talbot_points);
  };
  double lo = 0.02 * tau_scale, hi = 8.0 * tau_scale;
  if (v(lo) > f || !(v(hi) >= f)) return std::nullopt;
  *collapse_probes = -1;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (*collapse_probes < 0 && (mid == lo || mid == hi)) *collapse_probes = i;
    (v(mid) < f ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

TEST(ExactEngine, LegacyBisectionStopsAtCollapseWithTheFixedLoopBits) {
  // The legacy path stops once the midpoint equals an endpoint; past that
  // point the fixed loop's probes cannot change the returned midpoint, so
  // both must agree bit for bit — and the early exit must skip exactly the
  // probes made after the collapse.
  ExactOptions legacy;
  legacy.legacy_bisection = true;
  for (const auto& tech : {Technology::nm250(), Technology::nm100()}) {
    for (double l : {0.0, 1e-6, 3e-6}) {
      const auto c = engine_case(tech, l);
      const auto line = c.tech.line(c.l);
      const auto dl = c.tech.rep.scaled(c.k);
      for (double f : {0.25, 0.5, 0.75}) {
        int probes = 0;
        const auto ref = fixed_loop_bisection(line, c.h, dl, c.tau, f,
                                              legacy.talbot_points, &probes);
        ExactStats stats;
        const auto got = exact_threshold_delay(c.tech, c.l, c.h, c.k, c.tau,
                                               f, legacy, &stats);
        ASSERT_TRUE(ref.has_value()) << tech.name << " l = " << l
                                     << " f = " << f;
        ASSERT_TRUE(got.has_value()) << tech.name << " l = " << l
                                     << " f = " << f;
        EXPECT_EQ(*got, *ref) << tech.name << " l = " << l << " f = " << f;
        ASSERT_GT(probes, 0) << "the fixed loop never collapsed its bracket";
        EXPECT_EQ(stats.transfer_evals,
                  static_cast<std::int64_t>(2 + probes) * legacy.talbot_points)
            << tech.name << " l = " << l << " f = " << f;
      }
    }
  }
}

TEST(ExactEngine, RescueReturnsTheLegacyBisectionBits) {
  // When polish cannot bracket the crossing on its fresh contours, the
  // engine counts a legacy fallback and answers with the per-t bisection.
  // Four-node windows are coarse enough to lose the bracket at some points
  // of this slice (both nodes at the RC optimum, 0-5 nH/mm, three
  // thresholds); each rescued answer must be the legacy path's, bit for bit.
  ExactOptions coarse;
  coarse.window_points = 4;
  ExactOptions legacy;
  legacy.legacy_bisection = true;
  int rescues = 0;
  for (const auto& tech : {Technology::nm250(), Technology::nm100()}) {
    for (int i = 0; i <= 50; ++i) {
      const auto c = engine_case(tech, 5e-6 * i / 50.0);
      for (double f : {0.1, 0.5, 0.9}) {
        ExactStats stats;
        const auto got = exact_threshold_delay(c.tech, c.l, c.h, c.k, c.tau,
                                               f, coarse, &stats);
        if (stats.legacy_fallbacks == 0) continue;
        ++rescues;
        const auto ref =
            exact_threshold_delay(c.tech, c.l, c.h, c.k, c.tau, f, legacy);
        ASSERT_EQ(got.has_value(), ref.has_value())
            << tech.name << " l = " << c.l << " f = " << f;
        if (ref) {
          EXPECT_EQ(*got, *ref) << tech.name << " l = " << c.l << " f = " << f;
        }
      }
    }
  }
  EXPECT_GT(rescues, 0) << "no point of the slice took the rescue path";
}

TEST(ExactEngine, NonBracketedReturnsNulloptOnBothPaths) {
  const auto c = engine_case(Technology::nm100(), 1e-6);
  ExactOptions legacy;
  legacy.legacy_bisection = true;
  // Scale so large the response settled long before the search window.
  EXPECT_FALSE(exact_threshold_delay(c.tech, c.l, c.h, c.k, 1e3 * c.tau, 0.5,
                                     legacy)
                   .has_value());
  EXPECT_FALSE(exact_threshold_delay(c.tech, c.l, c.h, c.k, 1e3 * c.tau, 0.5,
                                     ExactOptions{})
                   .has_value());
  // Scale so small the response has not moved inside the window.
  EXPECT_FALSE(exact_threshold_delay(c.tech, c.l, c.h, c.k, 1e-3 * c.tau, 0.5,
                                     legacy)
                   .has_value());
  EXPECT_FALSE(exact_threshold_delay(c.tech, c.l, c.h, c.k, 1e-3 * c.tau, 0.5,
                                     ExactOptions{})
                   .has_value());
}

TEST(ExactEngine, OptionValidation) {
  const auto c = engine_case(Technology::nm100(), 1e-6);
  ExactOptions o;
  o.window_points = 3;
  EXPECT_THROW(exact_threshold_delay(c.tech, c.l, c.h, c.k, c.tau, 0.5, o),
               std::domain_error);
}

TEST(ExactEngine, SweepParallelMatchesSerialBitIdentical) {
  // exact_sweep must be deterministic: every task builds its own evaluator
  // and contours, so the parallel fan-out returns bit-identical delays to
  // a plain loop of exact_threshold_delay calls for any thread count, in
  // input order.
  const auto tech = Technology::nm250();
  const auto rc = rc_optimum(tech);
  std::vector<double> ls;
  for (int i = 0; i <= 10; ++i) ls.push_back(5.0e-6 * i / 10.0);

  // The engine's deterministic counts, read as registry deltas.
  const std::vector<std::string> counts{"exact.threshold.calls",
                                        "tline.transfer.evals",
                                        "talbot.contours", "brent.root.solves"};
  const auto read_counts = [&counts] {
    std::vector<std::int64_t> v;
    for (const auto& name : counts) v.push_back(counter_value(name));
    return v;
  };
  const auto counts_since = [&](const std::vector<std::int64_t>& before) {
    std::vector<std::int64_t> v = read_counts();
    for (std::size_t i = 0; i < v.size(); ++i) v[i] -= before[i];
    return v;
  };

  std::vector<std::optional<double>> ref;
  const auto serial_before = read_counts();
  for (double l : ls) {
    // exact_sweep's search scale: the two-pole delay, which converges on
    // this grid.
    const auto d = segment_delay(tech.rep, tech.line(l), rc.h, rc.k);
    ASSERT_TRUE(d.converged) << l;
    ref.push_back(exact_threshold_delay(tech, l, rc.h, rc.k, d.tau, 0.5));
    ASSERT_TRUE(ref.back().has_value()) << l;
  }
  const auto serial_counts = counts_since(serial_before);
  // One exact threshold solve per point.
  EXPECT_EQ(serial_counts[0], static_cast<std::int64_t>(ls.size()));

  for (const std::size_t threads : {1u, 2u, 7u}) {
    rlc::exec::ThreadPool pool(threads);
    ExactSweepOptions par;
    par.pool = &pool;
    const auto before = read_counts();
    const auto got = exact_sweep(tech, ls, rc.h, rc.k, par);
    const auto par_counts = counts_since(before);
    ASSERT_EQ(got.size(), ref.size()) << threads << " threads";
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ref[i].has_value(), got[i].has_value())
          << threads << " threads, point " << i;
      if (ref[i]) {
        EXPECT_EQ(*ref[i], *got[i]) << threads << " threads, point " << i;
      }
    }
    // Instrumentation is schedule-independent: the fan-out counts what the
    // serial loop counts.
    for (std::size_t i = 0; i < counts.size(); ++i) {
      EXPECT_EQ(par_counts[i], serial_counts[i])
          << threads << " threads, " << counts[i];
    }
  }
}

}  // namespace
}  // namespace rlc::core
