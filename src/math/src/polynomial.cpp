#include "rlc/math/polynomial.hpp"

#include <cmath>
#include <stdexcept>

namespace rlc::math {

std::pair<std::complex<double>, std::complex<double>> quadratic_roots(
    double a, double b, double c) {
  if (a == 0.0) throw std::invalid_argument("quadratic_roots: a must be nonzero");
  const double disc = b * b - 4.0 * a * c;
  if (disc >= 0.0) {
    const double sq = std::sqrt(disc);
    // Cancellation-free: compute the larger-magnitude root first.
    const double q = -0.5 * (b + (b >= 0.0 ? sq : -sq));
    std::complex<double> r1, r2;
    if (q != 0.0) {
      r1 = {q / a, 0.0};
      r2 = {c / q, 0.0};
    } else {
      // b == 0 and disc == 0 => double root at 0... or c == 0.
      r1 = {0.0, 0.0};
      r2 = {-b / a, 0.0};
    }
    return {r1, r2};
  }
  const double re = -b / (2.0 * a);
  const double im = std::sqrt(-disc) / (2.0 * a);
  return {std::complex<double>{re, im}, std::complex<double>{re, -im}};
}

}  // namespace rlc::math
