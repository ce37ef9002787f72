#include "rlc/core/two_pole.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rlc/math/constants.hpp"
#include "rlc/math/polynomial.hpp"

namespace rlc::core {

namespace {
/// Relative pole separation below which the confluent (critically damped)
/// series is used for the step response.
constexpr double kConfluentTol = 1e-7;
}  // namespace

TwoPole::TwoPole(const PadeCoeffs& pc) : b1_(pc.b1), b2_(pc.b2) {
  if (!(b1_ > 0.0) || !(b2_ > 0.0)) {
    throw std::domain_error("TwoPole: require b1 > 0 and b2 > 0");
  }
  // Roots of b2 s^2 + b1 s + 1 = 0 via the cancellation-free solver;
  // order so that s1 = (-b1 + sqrt(disc)) / (2 b2) (the slower pole when
  // real, the +omega_d pole when complex), matching the paper's convention.
  auto [r1, r2] = rlc::math::quadratic_roots(b2_, b1_, 1.0);
  if (r1.imag() < r2.imag() ||
      (r1.imag() == r2.imag() && r1.real() < r2.real())) {
    std::swap(r1, r2);
  }
  s1_ = r1;
  s2_ = r2;
  // Which form step_point uses depends only on the poles: decide once.
  // The confluent test is |s2 - s1| <= kConfluentTol (|s1| + |s2|) / 2.
  // Since max(|re z|, |im z|) <= |z| <= |re z| + |im z|, poles whose larger
  // part difference exceeds kConfluentTol times the sum of their parts'
  // magnitudes fail it by a factor of 2 or more, without its three hypots;
  // only poles that close (or non-finite ones) take the test itself.
  const double apart =
      std::max(std::abs(s2_.real() - s1_.real()),
               std::abs(s2_.imag() - s1_.imag()));
  const double parts = std::abs(s1_.real()) + std::abs(s1_.imag()) +
                       std::abs(s2_.real()) + std::abs(s2_.imag());
  const bool confluent =
      !(apart > kConfluentTol * parts) &&
      std::abs(s2_ - s1_) <=
          kConfluentTol * (0.5 * (std::abs(s1_) + std::abs(s2_)));
  if (confluent) {
    form_ = Form::kConfluent;
    s_confluent_ = 0.5 * (s1_ + s2_).real();
  } else if (s1_.imag() != 0.0 && s2_ == std::conj(s1_)) {
    // quadratic_roots returns complex roots as re +/- i im, so the pair is
    // an exact conjugate and exp(s2 t) == conj(exp(s1 t)) whenever the
    // libm's cexp is conjugate-symmetric (pinned by
    // tests/core/test_two_pole.cpp).
    form_ = Form::kConjugate;
  } else {
    form_ = Form::kReal;
  }
}

Damping TwoPole::damping(double rel_tol) const {
  const double disc = discriminant();
  const double scale = b1_ * b1_ + 4.0 * b2_;
  if (std::abs(disc) <= rel_tol * scale) return Damping::kCriticallyDamped;
  return disc > 0.0 ? Damping::kOverdamped : Damping::kUnderdamped;
}

double TwoPole::natural_frequency() const { return 1.0 / std::sqrt(b2_); }

double TwoPole::damping_ratio() const { return b1_ / (2.0 * std::sqrt(b2_)); }

double TwoPole::step_response(double t) const {
  if (t <= 0.0) return 0.0;
  return step_point(t).v;
}

double TwoPole::step_response_derivative(double t) const {
  if (t < 0.0) return 0.0;
  return step_point(t).dv;
}

// The complex form is
//
//   v  = 1 - (s2 e1 - s1 e2) / (s2 - s1),  v' = s1 s2 (e2 - e1) / (s2 - s1),
//
// with e_k = exp(s_k t), GCC's inline complex products and libgcc's
// __divdc3 for the division.  On the two pole forms quadratic_roots
// returns, every product with an exact zero and every difference of equal
// terms is known, so the complex steps reduce to the real ones below.
// __divdc3 divides by the larger-magnitude part of the denominator after
// scaling numerator and denominator by a power of two, which leaves the
// quotient's bits unchanged; the "+ 0.0" terms keep the sign of zero the
// complex form gives.
TwoPole::Point TwoPole::step_point(double t) const {
  Point p;
  switch (form_) {
    case Form::kConfluent: {
      // Confluent double pole at s = (s1 + s2)/2: v = 1 - (1 - s t) e^{s t}.
      const double s = s_confluent_;
      const double e = std::exp(s * t);
      p.v = 1.0 - (1.0 - s * t) * e;
      p.dv = s * s * t * e;
      break;
    }
    case Form::kReal: {
      // s_k = x_k + 0i, so exp(s_k t) = exp(x_k t) + 0i, the numerators are
      // real and __divdc3 divides the real parts.
      const double x1 = s1_.real(), x2 = s2_.real();
      const double e1 = std::exp(x1 * t);
      const double e2 = std::exp(x2 * t);
      p.v = 1.0 - (x2 * e1 - x1 * e2) / (x2 - x1);
      p.dv = (x1 * x2 * (e2 - e1) + 0.0) / (x2 - x1);
      break;
    }
    case Form::kConjugate: {
      // s1 = a + ib, s2 = a - ib, e1 = c + id, e2 = c - id: the numerators
      // are purely imaginary (2 beta, and -2 d (a^2 + b^2)) over -2ib, and
      // __divdc3 divides the imaginary parts.
      const double a = s1_.real(), b = s1_.imag();
      const std::complex<double> e1 = std::exp(s1_ * t);
      const double c = e1.real(), d = e1.imag();
      const double beta = a * d - b * c;
      p.v = 1.0 - (beta + beta) / (-b - b);
      p.dv = ((a * a + b * b) * (-d - d) + 0.0) / (-b - b);
      break;
    }
  }
  return p;
}

double TwoPole::damped_frequency() const {
  return std::abs(s1_.imag());
}

double TwoPole::overshoot() const {
  const double zeta = damping_ratio();
  if (zeta >= 1.0) return 0.0;
  return std::exp(-zeta * rlc::math::kPi / std::sqrt(1.0 - zeta * zeta));
}

double TwoPole::undershoot() const {
  const double zeta = damping_ratio();
  if (zeta >= 1.0) return 0.0;
  return std::exp(-2.0 * zeta * rlc::math::kPi / std::sqrt(1.0 - zeta * zeta));
}

}  // namespace rlc::core
