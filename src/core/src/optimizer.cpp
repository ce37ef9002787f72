#include "rlc/core/optimizer.hpp"

#include "rlc/base/cancel.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <limits>
#include <stdexcept>

#include "rlc/math/nelder_mead.hpp"
#include "rlc/math/newton.hpp"
#include "rlc/obs/metrics.hpp"
#include "rlc/obs/trace.hpp"

namespace rlc::core {

namespace {

using cplx = std::complex<double>;

struct PoleSens {
  cplx s1, s2;
  cplx ds1_dh, ds2_dh, ds1_dk, ds2_dk;
  double disc = 0.0;
  bool valid = false;
};

/// Poles and their analytic sensitivities to h and k:
///   ds/dx = [ -b1' +- (b1 b1' - 2 b2') / D ] / (2 b2) - s b2' / b2,
/// with D = sqrt(b1^2 - 4 b2) (complex).  Invalid when |D| is so small that
/// the 1/D terms lose all significance (near-critically-damped; the
/// optimizer falls back to the derivative-free path there).  `pc` is
/// pade_coeffs_hk(rep, line, h, k).
PoleSens pole_sensitivities(const Repeater& rep, const tline::LineParams& line,
                            double h, double k, const PadeCoeffs& pc) {
  PoleSens ps;
  const PadeDerivs pd = pade_derivs_hk(rep, line, h, k);
  const double b1 = pc.b1, b2 = pc.b2;
  ps.disc = b1 * b1 - 4.0 * b2;
  const cplx D = std::sqrt(cplx{ps.disc, 0.0});
  const double scale = b1 * b1 + 4.0 * b2;
  if (std::abs(D) * std::abs(D) < 1e-12 * scale) {
    ps.valid = false;
    return ps;
  }
  ps.s1 = (-b1 + D) / (2.0 * b2);
  ps.s2 = (-b1 - D) / (2.0 * b2);
  const auto dsd = [&](double db1, double db2, const cplx& s, double sign) {
    return (-db1 + sign * (b1 * db1 - 2.0 * db2) / D) / (2.0 * b2) -
           s * db2 / b2;
  };
  ps.ds1_dh = dsd(pd.db1_dh, pd.db2_dh, ps.s1, +1.0);
  ps.ds2_dh = dsd(pd.db1_dh, pd.db2_dh, ps.s2, -1.0);
  ps.ds1_dk = dsd(pd.db1_dk, pd.db2_dk, ps.s1, +1.0);
  ps.ds2_dk = dsd(pd.db1_dk, pd.db2_dk, ps.s2, -1.0);
  ps.valid = true;
  return ps;
}

/// Map the (analytically real-or-imaginary) complex residual to its
/// meaningful real component given the damping regime.
double realify(const cplx& g, double disc) {
  return disc < 0.0 ? g.imag() : g.real();
}

}  // namespace

StationarityResiduals stationarity_residuals(const Repeater& rep,
                                             const tline::LineParams& line,
                                             double h, double k, double f,
                                             double near_tau) {
  StationarityResiduals out;
  if (!(h > 0.0) || !(k > 0.0)) return out;
  const PadeCoeffs pc = pade_coeffs_hk(rep, line, h, k);
  const PoleSens ps = pole_sensitivities(rep, line, h, k, pc);
  if (!ps.valid) return out;
  DelayOptions dopts;
  dopts.f = f;
  const TwoPole sys(pc);
  const DelayResult dr = threshold_delay(sys, dopts, near_tau);
  if (!dr.converged) return out;
  const double tau = dr.tau;
  const cplx e1 = std::exp(ps.s1 * tau);
  // Complex poles come out as an exact conjugate pair, and then
  // exp(s2 tau) == conj(exp(s1 tau)) (the libm's cexp is
  // conjugate-symmetric, pinned by tests/core/test_two_pole.cpp).
  const bool conjugate = ps.s1.imag() != 0.0 && ps.s2 == std::conj(ps.s1);
  const cplx e2 = conjugate ? std::conj(e1) : std::exp(ps.s2 * tau);
  // Eq. (7): stationarity in h (with d tau/d h = tau / h substituted).
  const cplx g1 = (1.0 - f) * (ps.ds2_dh - ps.ds1_dh) - ps.ds2_dh * e1 +
                  ps.ds1_dh * e2 -
                  ps.s2 * tau * (ps.ds1_dh + ps.s1 / h) * e1 +
                  ps.s1 * tau * (ps.ds2_dh + ps.s2 / h) * e2;
  // Eq. (8): stationarity in k (with d tau/d k = 0 substituted).
  const cplx g2 = (1.0 - f) * (ps.ds2_dk - ps.ds1_dk) - ps.ds2_dk * e1 -
                  ps.s2 * tau * ps.ds1_dk * e1 + ps.ds1_dk * e2 +
                  ps.s1 * tau * ps.ds2_dk * e2;
  out.g1 = realify(g1, ps.disc);
  out.g2 = realify(g2, ps.disc);
  out.tau = tau;
  out.valid = std::isfinite(out.g1) && std::isfinite(out.g2);
  return out;
}

double delay_per_length(const Repeater& rep, const tline::LineParams& line,
                        double h, double k, double f) {
  DelayOptions dopts;
  dopts.f = f;
  const DelayResult dr = segment_delay(rep, line, h, k, dopts);
  if (!dr.converged) {
    throw std::runtime_error("delay_per_length: delay solve failed");
  }
  return dr.tau / h;
}

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// `near_tau` is a crossing near the start (u0, w0); each solve starts its
/// search at the crossing of the last one that converged.
OptimResult nelder_mead_fallback(const Repeater& rep,
                                 const tline::LineParams& line,
                                 const OptimOptions& opts, double h_ref,
                                 double k_ref, double u0, double w0,
                                 double near_tau) {
  RLC_TRACE_SPAN("nelder_mead_fallback");
  static const int kFallbacks =
      obs::Registry::global().counter("optimizer.nm_fallbacks");
  obs::Registry::global().add(kFallbacks);
  DelayOptions dopts;
  dopts.f = opts.f;
  const auto objective = [&](const std::vector<double>& x) -> double {
    const double h = x[0] * h_ref;
    const double k = x[1] * k_ref;
    if (!(h > 0.0) || !(k > 0.0)) return kNaN;
    const DelayResult dr = segment_delay(rep, line, h, k, dopts, near_tau);
    if (!dr.converged) return kNaN;
    near_tau = dr.tau;
    return dr.tau / h;
  };
  rlc::math::NelderMeadOptions nm;
  nm.max_iterations = 4000;
  nm.f_tolerance = 1e-13;
  nm.x_tolerance = 1e-10;
  nm.initial_step = 0.15;
  const auto sol = rlc::math::nelder_mead(objective, {u0, w0}, nm);
  OptimResult res;
  res.method = OptimMethod::kNelderMead;
  res.h = sol.x[0] * h_ref;
  res.k = sol.x[1] * k_ref;
  res.converged = sol.converged && std::isfinite(sol.fx);
  if (res.converged) {
    const DelayResult dr =
        segment_delay(rep, line, res.h, res.k, dopts, near_tau);
    res.tau = dr.tau;
    res.delay_per_length = dr.tau / res.h;
  }
  return res;
}

}  // namespace

namespace {

/// Newton solves a stationarity system, which is also satisfied by saddle
/// points and maxima of tau/h; accept a candidate only if small
/// perturbations do not lower the objective.  `near_tau` is a crossing at
/// or near the candidate, where every probe starts its search.
bool is_local_minimum(const Repeater& rep, const tline::LineParams& line,
                      double h, double k, double f, double near_tau) {
  DelayOptions dopts;
  dopts.f = f;
  // delay_per_length at (hp, kp), NaN when the solve fails.
  const auto dpl = [&](double hp, double kp) {
    const DelayResult dr = segment_delay(rep, line, hp, kp, dopts, near_tau);
    return dr.converged ? dr.tau / hp : kNaN;
  };
  try {
    const double base = dpl(h, k);
    if (std::isnan(base)) return false;
    for (const double eps : {1e-3, -1e-3}) {
      const double dh = dpl(h * (1.0 + eps), k);
      if (std::isnan(dh) || dh < base * (1.0 - 1e-7)) return false;
      const double dk = dpl(h, k * (1.0 + eps));
      if (std::isnan(dk) || dk < base * (1.0 - 1e-7)) return false;
    }
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

OptimResult optimize_rlc(const Repeater& rep, const tline::LineParams& line,
                         const OptimOptions& opts) {
  RLC_TRACE_SPAN("optimize_rlc");
  static const int kCalls = obs::Registry::global().counter("optimizer.calls");
  obs::Registry::global().add(kCalls);
  line.validate();
  // Reference scales from the Elmore optimum: Newton operates on
  // (u, w) = (h/h_ref, k/k_ref) so both variables are O(1).
  const RcOptimum rc = rc_optimum(rep, line.r, line.c);
  const double h_ref = rc.h, k_ref = rc.k;
  const double u0 = (opts.h0 > 0.0 ? opts.h0 : 0.9 * rc.h) / h_ref;
  const double w0 = (opts.k0 > 0.0 ? opts.k0 : 0.9 * rc.k) / k_ref;

  // Residual normalization: constant row scales computed at the initial
  // point (a constant rescaling leaves the Newton iterates unchanged but
  // makes the convergence test dimensionless).
  double n1 = 1.0, n2 = 1.0;
  const auto sr0 =
      stationarity_residuals(rep, line, u0 * h_ref, w0 * k_ref, opts.f);
  if (sr0.valid) {
    n1 = std::max(std::abs(sr0.g1), 1e-300);
    n2 = std::max(std::abs(sr0.g2), 1e-300);
  }

  // Consecutive residuals (the Jacobian's probes, line-search trials, the
  // next iterate) sit close together, so each inner solve starts its search
  // at the last crossing found (0 until one is).  Convergence leaves
  // near_tau at the crossing of the accepted point, whose residual came
  // last.
  double near_tau = sr0.tau;
  const rlc::math::Fn2 residual = [&](const std::array<double, 2>& x) {
    const auto sr = stationarity_residuals(rep, line, x[0] * h_ref,
                                           x[1] * k_ref, opts.f, near_tau);
    if (sr.tau > 0.0) near_tau = sr.tau;
    if (!sr.valid) return std::array<double, 2>{kNaN, kNaN};
    return std::array<double, 2>{sr.g1 / n1, sr.g2 / n2};
  };

  rlc::math::NewtonOptions nopts;
  nopts.max_iterations = opts.max_iterations;
  nopts.f_tolerance = opts.residual_tolerance;
  nopts.x_tolerance = 1e-12;
  nopts.damped = true;
  const auto jac = rlc::math::fd_jacobian_2d(residual, 1e-6);
  const auto sol = rlc::math::newton_2d(residual, jac, {u0, w0}, nopts,
                                        std::array<double, 2>{1e-4, 1e-3});

  OptimResult res;
  res.method = OptimMethod::kNewton;
  res.newton_iterations = sol.iterations;
  if (sol.converged && is_local_minimum(rep, line, sol.x[0] * h_ref,
                                        sol.x[1] * k_ref, opts.f, near_tau)) {
    res.h = sol.x[0] * h_ref;
    res.k = sol.x[1] * k_ref;
    DelayOptions dopts;
    dopts.f = opts.f;
    const DelayResult dr =
        segment_delay(rep, line, res.h, res.k, dopts, near_tau);
    if (dr.converged) {
      res.tau = dr.tau;
      res.delay_per_length = dr.tau / res.h;
      res.converged = true;
      return res;
    }
  }
  if (!opts.allow_fallback) {
    res.converged = false;
    return res;
  }
  // Newton failed or landed on a non-minimal stationary point: restart the
  // derivative-free search from the original guess, not the rejected point.
  OptimResult fb =
      nelder_mead_fallback(rep, line, opts, h_ref, k_ref, u0, w0, sr0.tau);
  fb.newton_iterations = sol.iterations;
  return fb;
}

OptimResult optimize_rlc(const Technology& tech, double l,
                         const OptimOptions& opts) {
  return optimize_rlc(tech.rep, tech.line(l), opts);
}

std::vector<OptimResult> optimize_rlc_sweep(const Technology& tech,
                                            const std::vector<double>& l_values,
                                            const OptimOptions& opts) {
  std::vector<OptimResult> out;
  out.reserve(l_values.size());
  OptimOptions start = opts;
  for (double l : l_values) {
    out.push_back(optimize_rlc(tech, l, start));
    if (out.back().converged) {
      start.h0 = out.back().h;
      start.k0 = out.back().k;
    }
  }
  return out;
}

}  // namespace rlc::core
