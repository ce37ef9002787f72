#include "rlc/core/delay.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "rlc/math/constants.hpp"
#include "rlc/math/newton.hpp"
#include "rlc/obs/metrics.hpp"

namespace rlc::core {

DelayResult threshold_delay(const TwoPole& sys, const DelayOptions& opts,
                            double near_tau) {
  if (!(opts.f > 0.0 && opts.f < 1.0)) {
    throw std::domain_error("threshold_delay: f must be in (0, 1)");
  }
  static const int kStepEvals =
      obs::Registry::global().counter("delay.step_evals");
  DelayResult res;
  // v and v' come from one exponential per t, and the polish asks for v'
  // at the t whose v it has just taken, so one held point serves both.
  // `evals` counts the t at which the response is evaluated; it reaches
  // the registry once per solve.
  long evals = 0;
  double held_t = std::numeric_limits<double>::quiet_NaN();
  TwoPole::Point held;
  const auto at = [&](double t) -> const TwoPole::Point& {
    if (!(t == held_t)) {
      held = sys.step_point(t);
      held_t = t;
      ++evals;
    }
    return held;
  };
  const auto v = [&](double t) { return at(t).v - opts.f; };
  const auto dv = [&](double t) { return at(t).dv; };

  // Characteristic time: for overdamped systems b1 dominates, for
  // underdamped the rise happens within a fraction of the ring period.
  const double t_char = std::max(sys.b1(), std::sqrt(sys.b2()));

  // Bracket the FIRST crossing of f on the grid t_i = i dt: the first i
  // with v(t_i) >= f.  v(0) = 0 < f and v -> 1 > f, so a crossing exists.
  const int kStepsPerChar = 64;
  const double dt = t_char / kStepsPerChar;
  // 200 characteristic times is far beyond any physical delay here; the
  // response has settled long before.
  const long max_steps = 200L * kStepsPerChar;
  // g(n) = v(t_n) - f; the bracket is the first n with g(n) >= 0.
  const auto g = [&](long n) { return v(dt * static_cast<double>(n)); };
  // v rises monotonically up to its first peak at pi / omega_d (there is no
  // peak for real or confluent poles), and v there is 1 + overshoot > f.
  // So "g(i) >= 0" is monotone in i up to i_peak = floor(pi/(omega_d dt)):
  // there is exactly one i in (0, i_peak] with g(i - 1) < 0 <= g(i), and
  // any search that finds such an i returns the first crossing.
  long last = max_steps;
  const double wd = sys.damped_frequency();
  if (wd > 0.0) {
    const double i_peak = rlc::math::kPi / (wd * dt);
    if (i_peak < static_cast<double>(max_steps)) {
      last = static_cast<long>(i_peak);
    }
  }

  // Start at a neighbour's crossing if the caller has one.  Otherwise
  // start at the grid index of a closed-form estimate of the crossing: the
  // one-pole time b1 ln(1/(1 - f)), clamped into (0, t_last], plus one
  // Newton step.  Without a finite estimate, start at the top of the range.
  double guess = std::ceil(near_tau / dt);
  if (!(near_tau > 0.0 && std::isfinite(near_tau))) {
    const double t0 = std::clamp(-sys.b1() * std::log1p(-opts.f), dt,
                                 dt * static_cast<double>(last));
    const TwoPole::Point p0 = at(t0);
    guess = std::ceil((t0 - (p0.v - opts.f) / p0.dv) / dt);
  }
  long i = std::isfinite(guess)
               ? static_cast<long>(
                     std::clamp(guess, 1.0, static_cast<double>(last)))
               : last;
  double g_i = g(i);
  // Invariant once bracketed: g(below) < 0 <= g(i), with both values held
  // for the polish (g(0) = -f).
  long below = 0;
  double g_below = -opts.f;
  if (g_i >= 0.0) {
    // Reached at the start: gallop down to an index that falls short.
    for (long step = 1;; step *= 2) {
      const long n = std::max(0L, i - step);
      if (n == 0) break;
      const double gn = g(n);
      if (gn < 0.0) {
        below = n;
        g_below = gn;
        break;
      }
      i = n;
      g_i = gn;
    }
  } else {
    // Short of f at the start: gallop up, at most to the peak's index.
    below = i;
    g_below = g_i;
    for (long step = 1; below < last; step *= 2) {
      const long n = std::min(last, below + step);
      const double gn = g(n);
      if (gn >= 0.0) {
        i = n;
        g_i = gn;
        break;
      }
      below = n;
      g_below = gn;
    }
    if (below == last) {
      // No crossing by the peak (not possible in exact arithmetic): walk
      // the grid forward.
      for (i = last + 1; i <= max_steps; ++i) {
        g_i = g(i);
        if (g_i >= 0.0) break;
        below = i;
        g_below = g_i;
      }
      if (i > max_steps) {
        obs::Registry::global().add(kStepEvals, evals);
        res.converged = false;
        return res;
      }
    }
  }
  while (i - below > 1) {
    const long mid = below + (i - below) / 2;
    const double gm = g(mid);
    if (gm >= 0.0) {
      i = mid;
      g_i = gm;
    } else {
      below = mid;
      g_below = gm;
    }
  }
  const double lo = dt * static_cast<double>(i - 1);
  const double hi = dt * static_cast<double>(i);

  rlc::math::NewtonOptions nopts;
  nopts.max_iterations = opts.max_iterations;
  nopts.f_tolerance = 1e-14;
  nopts.x_tolerance = opts.rel_tolerance;
  const auto sol =
      rlc::math::newton_bisect_scalar(v, dv, lo, hi, g_below, g_i, nopts);
  obs::Registry::global().add(kStepEvals, evals);
  res.tau = sol.x;
  res.newton_iterations = sol.iterations;
  res.converged = sol.converged;
  return res;
}

double delay_50(const TwoPole& sys) {
  const DelayResult r = threshold_delay(sys, {});
  if (!r.converged) throw std::runtime_error("delay_50: delay solve failed");
  return r.tau;
}

DelayResult segment_delay(const Repeater& rep, const tline::LineParams& line,
                          double h, double k, const DelayOptions& opts,
                          double near_tau) {
  const TwoPole sys(pade_coeffs_hk(rep, line, h, k));
  return threshold_delay(sys, opts, near_tau);
}

}  // namespace rlc::core
