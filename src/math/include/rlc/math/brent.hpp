#pragma once

/// \file brent.hpp
/// Brent's method for root finding and 1-D minimization.  Used as robust
/// fallbacks and as cross-checks for the Newton-based solvers of the core
/// library.

#include "rlc/base/function_ref.hpp"

namespace rlc::math {

/// Result of a bracketed 1-D root solve.
struct BrentResult {
  double x = 0.0;
  double fx = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Find a root of f in [a, b] with f(a)*f(b) <= 0 using Brent's method.
BrentResult brent_root(rlc::FunctionRef<double(double)> f, double a,
                       double b, double tol = 1e-14, int max_iter = 200);

/// Result of a 1-D minimization.
struct MinResult {
  double x = 0.0;
  double fx = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Minimize f over [a, b] using Brent's parabolic-interpolation method
/// (golden-section fallback).
MinResult brent_minimize(rlc::FunctionRef<double(double)> f, double a,
                         double b, double tol = 1e-10, int max_iter = 200);

}  // namespace rlc::math
