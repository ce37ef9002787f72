#pragma once

/// \file derivative.hpp
/// Finite-difference derivatives with Richardson extrapolation, a
/// test-support reference (no library code calls it): the tests use it to
/// validate the analytic sensitivities (d b1/d h, d s1/d k, ...) that the
/// (h, k) optimizer relies on.

#include <functional>

namespace rlc::math {

/// Central-difference first derivative of f at x with relative step.
double central_diff(const std::function<double(double)>& f, double x,
                    double rel_step = 1e-6);

/// Richardson-extrapolated central difference (two step sizes, O(h^4)).
double richardson_diff(const std::function<double(double)>& f, double x,
                       double rel_step = 1e-4);

/// Second derivative by central differences.
double central_diff2(const std::function<double(double)>& f, double x,
                     double rel_step = 1e-4);

}  // namespace rlc::math
