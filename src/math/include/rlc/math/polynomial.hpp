#pragma once

/// \file polynomial.hpp
/// Small polynomial utilities.  The core library's two-pole model reduces to
/// quadratic root finding; we provide a numerically robust quadratic solver
/// (complex-aware, cancellation-free).

#include <complex>
#include <utility>

namespace rlc::math {

/// Roots of a*x^2 + b*x + c = 0 (a != 0), returned as a complex pair.
/// Uses the cancellation-free form: q = -(b + sign(b)*sqrt(disc))/2,
/// roots = q/a and c/q, so that nearly-critically-damped systems (disc ~ 0)
/// and widely-split real roots are both handled accurately.
std::pair<std::complex<double>, std::complex<double>> quadratic_roots(
    double a, double b, double c);

}  // namespace rlc::math
