#include "rlc/core/delay.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rlc/math/constants.hpp"
#include "rlc/math/newton.hpp"
#include "rlc/obs/metrics.hpp"

namespace rlc::core {

DelayResult threshold_delay(const TwoPole& sys, const DelayOptions& opts) {
  if (!(opts.f > 0.0 && opts.f < 1.0)) {
    throw std::domain_error("threshold_delay: f must be in (0, 1)");
  }
  static const int kStepEvals =
      obs::Registry::global().counter("delay.step_evals");
  DelayResult res;
  // Evaluations of v and v', added to the registry once per solve.
  long evals = 0;
  const auto v = [&sys, &opts, &evals](double t) {
    ++evals;
    return sys.step_response(t) - opts.f;
  };
  const auto dv = [&sys, &evals](double t) {
    ++evals;
    return sys.step_response_derivative(t);
  };

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
  const auto reached = [&](long n) {
    return v(dt * static_cast<double>(n)) >= 0.0;
  };
  // v rises monotonically up to its first peak at pi / omega_d (there is no
  // peak for real or confluent poles), and v there is 1 + overshoot > f.
  // So "v(t_i) >= f" is monotone in i up to i_peak = floor(pi/(omega_d dt)),
  // and bisecting over the index returns the same first i as walking the
  // grid from i = 1, in O(log) evaluations.
  long last = max_steps;
  const double wd = sys.damped_frequency();
  if (wd > 0.0) {
    const double i_peak = rlc::math::kPi / (wd * dt);
    if (i_peak < static_cast<double>(max_steps)) {
      last = static_cast<long>(i_peak);
    }
  }
  long i = last;
  if (reached(last)) {
    long below = 0;  // v(t_0) = 0 < f
    while (i - below > 1) {
      const long mid = below + (i - below) / 2;
      if (reached(mid)) {
        i = mid;
      } else {
        below = mid;
      }
    }
  } else {
    // No crossing by the peak (not possible in exact arithmetic): keep
    // walking the grid forward.
    for (i = last + 1; i <= max_steps && !reached(i); ++i) {
    }
  }
  if (i > max_steps) {
    obs::Registry::global().add(kStepEvals, evals);
    res.converged = false;
    return res;
  }
  const double lo = dt * static_cast<double>(i - 1);
  const double hi = dt * static_cast<double>(i);

  rlc::math::NewtonOptions nopts;
  nopts.max_iterations = opts.max_iterations;
  nopts.f_tolerance = 1e-14;
  nopts.x_tolerance = opts.rel_tolerance;
  const auto sol = rlc::math::newton_bisect_scalar(v, dv, lo, hi, nopts);
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
                          double h, double k, const DelayOptions& opts) {
  const TwoPole sys(pade_coeffs_hk(rep, line, h, k));
  return threshold_delay(sys, opts);
}

}  // namespace rlc::core
