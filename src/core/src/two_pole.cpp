#include "rlc/core/two_pole.hpp"

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
  // Which form step_response uses depends only on the poles: decide once.
  const double sep = std::abs(s2_ - s1_);
  const double mag = 0.5 * (std::abs(s1_) + std::abs(s2_));
  confluent_ = sep <= kConfluentTol * mag;
  // quadratic_roots returns complex roots as re +/- i im, so the pair is an
  // exact conjugate and exp(s2 t) == conj(exp(s1 t)) whenever the libm's
  // cexp is conjugate-symmetric (pinned by tests/core/test_two_pole.cpp).
  conjugate_ = s1_.imag() != 0.0 && s2_ == std::conj(s1_);
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
  if (confluent_) {
    // Confluent double pole at s = (s1 + s2)/2: v = 1 - (1 - s t) e^{s t}.
    const double s = 0.5 * (s1_ + s2_).real();
    return 1.0 - (1.0 - s * t) * std::exp(s * t);
  }
  const std::complex<double> e1 = std::exp(s1_ * t);
  const std::complex<double> e2 =
      conjugate_ ? std::conj(e1) : std::exp(s2_ * t);
  const std::complex<double> v = 1.0 - (s2_ * e1 - s1_ * e2) / (s2_ - s1_);
  return v.real();
}

double TwoPole::step_response_derivative(double t) const {
  if (t < 0.0) return 0.0;
  if (confluent_) {
    const double s = 0.5 * (s1_ + s2_).real();
    return s * s * t * std::exp(s * t);
  }
  // v'(t) = s1 s2 (exp(s2 t) - exp(s1 t)) / (s2 - s1)
  const std::complex<double> e1 = std::exp(s1_ * t);
  const std::complex<double> e2 =
      conjugate_ ? std::conj(e1) : std::exp(s2_ * t);
  const std::complex<double> d = s1_ * s2_ * (e2 - e1) / (s2_ - s1_);
  return d.real();
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
