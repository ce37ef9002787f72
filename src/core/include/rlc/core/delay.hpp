#pragma once

/// \file delay.hpp
/// f*100% threshold delay of the two-pole step response: the solution tau of
/// Eq. (3),
///
///   1 - f - [ s2 exp(s1 tau) - s1 exp(s2 tau) ] / (s2 - s1) = 0,
///
/// taken as the *first* upward crossing of v(t) = f (for underdamped systems
/// v(t) crosses the threshold several times; the first crossing is the
/// signal delay).  Solved by safeguarded Newton-Raphson exactly as in the
/// paper ("convergence is achieved in less than four iterations in all
/// cases"); the solver reports its iteration count so the benches can check
/// that claim.

#include "rlc/core/two_pole.hpp"

namespace rlc::core {

/// Result of a threshold-delay solve.
struct DelayResult {
  double tau = 0.0;        ///< threshold crossing time [s]
  int newton_iterations = 0;
  bool converged = false;
};

struct DelayOptions {
  double f = 0.5;  ///< threshold fraction, 0 < f < 1 (50% delay default)
  /// Despite its name, not relative to tau: the polish's x-tolerance, met
  /// once its bracket satisfies (hi - lo) <= rel_tolerance (1 + |t|) with t
  /// in seconds.  At the default that is about 1e-13 s absolute, about
  /// 1e-3 relative at tau ~ 1e-10 s.  The polish also stops once
  /// |v(t) - f| <= 1e-14.
  double rel_tolerance = 1e-13;
  int max_iterations = 100;
  // The deprecated rel_tol accessor alias (one-release grace period, see
  // DESIGN.md "Options hygiene") has been removed.
};

/// First time v(tau) = f.  Brackets the first crossing on the uniform grid
/// t_i = i dt, dt = t_char / 64 with t_char = max(b1, sqrt(b2)), i <= 200 *
/// 64: the bracket is [t_{i-1}, t_i] for the first i with v(t_i) >= f.  v
/// rises monotonically up to its first peak at pi / omega_d (real and
/// confluent poles have none), where v = 1 + overshoot > f, so up to that
/// peak exactly one i has v(t_{i-1}) < f <= v(t_i), and the search returns
/// it from any start index: it confirms v(t_{i-1}) < f <= v(t_i) at the
/// start, and otherwise gallops to a bracket and bisects it; past the peak
/// the grid is walked forward.  Then polishes with bisection-guarded Newton
/// on v(t) - f from the two end values the search holds.  The search starts
/// at ceil(near_tau / dt), clamped into [1, i_peak], when near_tau is
/// positive and finite: a crossing time of a neighbouring system, such as
/// the previous solve of an optimizer step or a finite-difference probe.
/// Otherwise it starts at the grid index of a closed-form estimate (the
/// one-pole time b1 ln(1/(1 - f)) plus one Newton step), or at the top of
/// the range without a finite estimate.  Since the bracket is unique, the
/// start moves only the number of evaluations, never a bit of the result.
/// The estimate and every Newton iterate take v and v' from one
/// exponential.  Adds one `delay.step_evals` count per t at which the
/// response is evaluated, once per call (about 10 per solve from the
/// estimate, 2 plus the polish from a start at the bracket, against one per
/// grid step for a walk).  Throws std::domain_error for f outside (0, 1).
DelayResult threshold_delay(const TwoPole& sys, const DelayOptions& opts = {},
                            double near_tau = 0.0);

/// Convenience: 50% delay, throwing std::runtime_error if not converged.
double delay_50(const TwoPole& sys);

/// Convenience: threshold delay of the segment (tech repeater, line, h, k),
/// its search started at near_tau as in threshold_delay.
DelayResult segment_delay(const Repeater& rep, const tline::LineParams& line,
                          double h, double k, const DelayOptions& opts = {},
                          double near_tau = 0.0);

}  // namespace rlc::core
