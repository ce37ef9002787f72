#include "support/two_pole_reference.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <stdexcept>

#include "rlc/math/constants.hpp"
#include "rlc/math/newton.hpp"

namespace rlc::core {

bool uses_confluent_series(const TwoPole& sys) {
  const double sep = std::abs(sys.s2() - sys.s1());
  const double mag = 0.5 * (std::abs(sys.s1()) + std::abs(sys.s2()));
  return sep <= 1e-7 * mag;
}

namespace {

bool conjugate_pair(const TwoPole& sys) {
  return sys.s1().imag() != 0.0 && sys.s2() == std::conj(sys.s1());
}

}  // namespace

double reference_step_response(const TwoPole& sys, double t) {
  if (t <= 0.0) return 0.0;
  const std::complex<double> s1_ = sys.s1(), s2_ = sys.s2();
  if (uses_confluent_series(sys)) {
    // Confluent double pole at s = (s1 + s2)/2: v = 1 - (1 - s t) e^{s t}.
    const double s = 0.5 * (s1_ + s2_).real();
    return 1.0 - (1.0 - s * t) * std::exp(s * t);
  }
  const std::complex<double> e1 = std::exp(s1_ * t);
  const std::complex<double> e2 =
      conjugate_pair(sys) ? std::conj(e1) : std::exp(s2_ * t);
  const std::complex<double> v = 1.0 - (s2_ * e1 - s1_ * e2) / (s2_ - s1_);
  return v.real();
}

double reference_step_response_derivative(const TwoPole& sys, double t) {
  if (t < 0.0) return 0.0;
  const std::complex<double> s1_ = sys.s1(), s2_ = sys.s2();
  if (uses_confluent_series(sys)) {
    const double s = 0.5 * (s1_ + s2_).real();
    return s * s * t * std::exp(s * t);
  }
  // v'(t) = s1 s2 (exp(s2 t) - exp(s1 t)) / (s2 - s1)
  const std::complex<double> e1 = std::exp(s1_ * t);
  const std::complex<double> e2 =
      conjugate_pair(sys) ? std::conj(e1) : std::exp(s2_ * t);
  const std::complex<double> d = s1_ * s2_ * (e2 - e1) / (s2_ - s1_);
  return d.real();
}

DelayResult reference_threshold_delay(const TwoPole& sys,
                                      const DelayOptions& opts,
                                      long* evals_out) {
  if (!(opts.f > 0.0 && opts.f < 1.0)) {
    throw std::domain_error("threshold_delay: f must be in (0, 1)");
  }
  DelayResult res;
  long evals = 0;
  const auto v = [&sys, &opts, &evals](double t) {
    ++evals;
    return reference_step_response(sys, t) - opts.f;
  };
  const auto dv = [&sys, &evals](double t) {
    ++evals;
    return reference_step_response_derivative(sys, t);
  };

  const double t_char = std::max(sys.b1(), std::sqrt(sys.b2()));
  const int kStepsPerChar = 64;
  const double dt = t_char / kStepsPerChar;
  const long max_steps = 200L * kStepsPerChar;
  const auto reached = [&](long n) {
    return v(dt * static_cast<double>(n)) >= 0.0;
  };
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
    for (i = last + 1; i <= max_steps && !reached(i); ++i) {
    }
  }
  if (i > max_steps) {
    if (evals_out != nullptr) *evals_out = evals;
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
  if (evals_out != nullptr) *evals_out = evals;
  res.tau = sol.x;
  res.newton_iterations = sol.iterations;
  res.converged = sol.converged;
  return res;
}

}  // namespace rlc::core
