#pragma once

/// \file newton.hpp
/// Newton–Raphson solvers: bracket-guarded scalar and fixed-size 2D, with
/// optional damping (backtracking line search on the residual norm).
///
/// The paper's optimization methodology (Sections 2.1–2.2) relies on two
/// nested Newton solves:
///   * Eq. (3): the f*100% delay crossing of the two-pole step response
///     ("convergence is achieved in less than four iterations in all cases");
///   * Eqs. (7)–(8): the stationarity system (g1, g2) = 0 in (h, k)
///     ("convergence is achieved in less than six iterations in all cases").
/// These solvers expose iteration counts so the benches can verify the claims.

#include <array>
#include <functional>
#include <optional>

#include "rlc/base/function_ref.hpp"

namespace rlc::math {

/// Outcome of an iterative solve.
struct SolveResult {
  double x = 0.0;        ///< converged solution (valid iff converged)
  int iterations = 0;    ///< iterations actually performed
  bool converged = false;
  double residual = 0.0; ///< |f(x)| at exit
};

/// Options shared by the Newton drivers.
struct NewtonOptions {
  int max_iterations = 100;
  double f_tolerance = 1e-12;   ///< stop when |f| (or ||f||_inf) drops below
  double x_tolerance = 0.0;     ///< additionally stop when |dx| <= x_tol*(1+|x|); 0 disables
  bool damped = true;           ///< backtracking line search if a full step grows ||f||
  int max_backtracks = 30;
};

/// Scalar Newton with a guard bracket [lo, hi]: whenever the Newton step
/// leaves the bracket (or the derivative vanishes) a bisection step is taken
/// instead, and the bracket is maintained from the signs of f.  The bracket
/// must satisfy f(lo)*f(hi) <= 0.  This is the robust driver used by the
/// delay solver where the two-pole response can be oscillatory.
SolveResult newton_bisect_scalar(rlc::FunctionRef<double(double)> f,
                                 rlc::FunctionRef<double(double)> fprime,
                                 double lo, double hi,
                                 const NewtonOptions& opts = {});

/// The same solve for a caller that already holds flo = f(lo) and
/// fhi = f(hi), e.g. from the search that found the bracket: f is not
/// evaluated at the ends again.  Same iterations, result and counters.
SolveResult newton_bisect_scalar(rlc::FunctionRef<double(double)> f,
                                 rlc::FunctionRef<double(double)> fprime,
                                 double lo, double hi, double flo, double fhi,
                                 const NewtonOptions& opts = {});

/// Result of a 2-dimensional solve.
struct SolveResult2 {
  std::array<double, 2> x{0.0, 0.0};
  int iterations = 0;
  bool converged = false;
  double residual = 0.0;  ///< ||f||_inf at exit
};

using Fn2 = std::function<std::array<double, 2>(const std::array<double, 2>&)>;
/// Jacobian callback: returns {{df1/dx1, df1/dx2}, {df2/dx1, df2/dx2}}.
using Jac2 = std::function<std::array<std::array<double, 2>, 2>(const std::array<double, 2>&)>;

/// Damped Newton for a 2x2 nonlinear system f(x) = 0.
///
/// Optionally enforces simple bounds (component-wise lower bounds, used by
/// the (h, k) optimizer where both segment length and repeater size must stay
/// strictly positive): any step that would cross a bound is shortened to stop
/// at `bound_fraction` of the distance to it.
SolveResult2 newton_2d(const Fn2& f, const Jac2& jac,
                       std::array<double, 2> x0,
                       const NewtonOptions& opts = {},
                       std::optional<std::array<double, 2>> lower_bounds = std::nullopt,
                       double bound_fraction = 0.5);

/// Build a finite-difference Jacobian for a 2D system (central differences,
/// relative step `rel_step`).  Used both as a fallback and in tests to verify
/// analytic derivatives.
Jac2 fd_jacobian_2d(const Fn2& f, double rel_step = 1e-6);

}  // namespace rlc::math
