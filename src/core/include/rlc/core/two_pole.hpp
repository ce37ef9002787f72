#pragma once

/// \file two_pole.hpp
/// The two-pole system implied by the Pade coefficients: pole locations,
/// damping classification (Figure 2), and the normalized step response
///
///   v(t) = 1 - [ s2 exp(s1 t) - s1 exp(s2 t) ] / (s2 - s1),  v(inf) = 1.
///
/// Works transparently for real (overdamped) and complex-conjugate
/// (underdamped) poles; a series form handles the nearly-critically-damped
/// case where the generic formula suffers catastrophic cancellation.
///
/// The two-exponential formula is evaluated in real arithmetic that
/// replays, operation for operation, the IEEE steps of its complex form
/// (complex products and libgcc's __divdc3 on the poles quadratic_roots
/// returns), so v and v' carry the complex form's bits at the cost of two
/// real exps or one complex exp and no complex division.
/// tests/support/two_pole_reference.hpp keeps the complex form.

#include <complex>

#include "rlc/core/pade.hpp"

namespace rlc::core {

/// Damping regime of the two-pole system (sign of b1^2 - 4 b2).
enum class Damping { kOverdamped, kCriticallyDamped, kUnderdamped };

class TwoPole {
 public:
  /// Build from Pade coefficients.  Requires b1 > 0 and b2 > 0 (passive,
  /// stable configuration); throws std::domain_error otherwise.
  explicit TwoPole(const PadeCoeffs& pc);

  double b1() const { return b1_; }
  double b2() const { return b2_; }
  std::complex<double> s1() const { return s1_; }
  std::complex<double> s2() const { return s2_; }

  /// True when step_point takes the confluent series: the poles lie within
  /// a relative 1e-7 of each other, |s2 - s1| <= 1e-7 (|s1| + |s2|) / 2.
  bool confluent() const { return form_ == Form::kConfluent; }

  /// b1^2 - 4 b2 (< 0: underdamped, oscillatory step response).
  double discriminant() const { return b1_ * b1_ - 4.0 * b2_; }

  /// Classify with a relative tolerance on the discriminant.
  Damping damping(double rel_tol = 1e-9) const;

  /// Undamped natural frequency omega_n = 1/sqrt(b2) [rad/s].
  double natural_frequency() const;

  /// Damping ratio zeta = b1 / (2 sqrt(b2)); zeta < 1 means underdamped.
  double damping_ratio() const;

  /// Normalized step response v(t) (unit final value), v(0) = 0.
  double step_response(double t) const;

  /// dv/dt.
  double step_response_derivative(double t) const;

  /// v(t) and v'(t) at one t >= 0 from one exponential, bit for bit
  /// step_response(t) and step_response_derivative(t): what a Newton step
  /// on Eq. (3) needs.
  struct Point {
    double v = 0.0;
    double dv = 0.0;
  };
  Point step_point(double t) const;

  /// Peak overshoot above the final value: max_t v(t) - 1 (0 for
  /// non-underdamped systems).  For underdamped: exp(-zeta pi / sqrt(1-zeta^2)).
  double overshoot() const;

  /// Depth of the first post-overshoot dip below the final value:
  /// 1 - v(2 pi / omega_d) for underdamped systems, 0 otherwise.  This is
  /// the "undershoot" that can falsely switch a downstream gate
  /// (Section 3.3.1): on the complementary falling transition the output
  /// rises by the same amount above ground.
  double undershoot() const;

  /// Damped oscillation frequency omega_d = |Im s1| (0 if overdamped).
  double damped_frequency() const;

 private:
  /// Which closed form step_point takes, decided once from the poles.
  enum class Form {
    kReal,       ///< distinct real poles, imaginary parts +0
    kConjugate,  ///< s2 == conj(s1) exactly, Im s1 > 0
    kConfluent,  ///< poles too close for the two-exponential formula
  };

  double b1_, b2_;
  std::complex<double> s1_, s2_;
  Form form_ = Form::kReal;
  double s_confluent_ = 0.0;  ///< (s1 + s2) / 2 for the confluent series
};

}  // namespace rlc::core
