#include "rlc/math/newton.hpp"

#include "rlc/base/cancel.hpp"

#include <algorithm>
#include <cmath>

#include "rlc/obs/metrics.hpp"
#include "rlc/obs/trace.hpp"

namespace rlc::math {

namespace {

/// Per-family instrumentation for a Newton solver: solves/failures
/// counters plus an iterations-to-converge histogram, recorded when the
/// enclosing solve returns (any exit path).  Pure observation — never
/// feeds back into the iteration.
struct SolveScope {
  int iters_hist;
  int solves;
  int failures;
  const bool* converged;
  const int* iterations;
  ~SolveScope() {
    auto& reg = obs::Registry::global();
    reg.add(solves);
    if (!*converged) reg.add(failures);
    reg.record(iters_hist, static_cast<double>(*iterations));
  }
};

}  // namespace

SolveResult newton_bisect_scalar(rlc::FunctionRef<double(double)> f,
                                 rlc::FunctionRef<double(double)> fprime,
                                 double lo, double hi,
                                 const NewtonOptions& opts) {
  const double flo = f(lo);
  const double fhi = f(hi);
  return newton_bisect_scalar(f, fprime, lo, hi, flo, fhi, opts);
}

SolveResult newton_bisect_scalar(rlc::FunctionRef<double(double)> f,
                                 rlc::FunctionRef<double(double)> fprime,
                                 double lo, double hi, double flo, double fhi,
                                 const NewtonOptions& opts) {
  auto& reg = obs::Registry::global();
  static const int kIters =
      reg.histogram("newton.bisect.iterations", 1.0, 256.0, 16);
  static const int kSolves = reg.counter("newton.bisect.solves");
  static const int kFailures = reg.counter("newton.bisect.failures");
  SolveResult r;
  SolveScope scope{kIters, kSolves, kFailures, &r.converged, &r.iterations};
  if (flo == 0.0) {
    r = {lo, 0, true, 0.0};
    return r;
  }
  if (fhi == 0.0) {
    r = {hi, 0, true, 0.0};
    return r;
  }
  if (!(flo * fhi < 0.0)) {
    // No sign change: caller gave a bad bracket.
    r.converged = false;
    r.x = lo;
    r.residual = std::abs(flo);
    return r;
  }
  double x = 0.5 * (lo + hi);
  double fx = f(x);
  for (int it = 0; it < opts.max_iterations; ++it) {
    rlc::checkpoint();  // cooperative cancellation/deadline (free when unset)
    r.iterations = it + 1;
    if (std::abs(fx) <= opts.f_tolerance ||
        (hi - lo) <= opts.x_tolerance * (1.0 + std::abs(x))) {
      r.x = x;
      r.converged = true;
      r.residual = std::abs(fx);
      return r;
    }
    // Maintain the bracket.
    if (flo * fx < 0.0) {
      hi = x;
      fhi = fx;
    } else {
      lo = x;
      flo = fx;
    }
    // Try a Newton step; fall back to bisection when it escapes the bracket.
    const double dfx = fprime(x);
    double xn;
    if (dfx != 0.0 && std::isfinite(dfx)) {
      xn = x - fx / dfx;
      if (!(xn > lo && xn < hi)) xn = 0.5 * (lo + hi);
    } else {
      xn = 0.5 * (lo + hi);
    }
    x = xn;
    fx = f(x);
    if (!std::isfinite(fx)) {
      x = 0.5 * (lo + hi);
      fx = f(x);
    }
  }
  r.x = x;
  r.residual = std::abs(fx);
  r.converged = std::abs(fx) <= opts.f_tolerance;
  return r;
}

namespace {

/// Solve the 2x2 linear system J * d = -f.  Returns false if J is singular
/// to working precision.
bool solve2(const std::array<std::array<double, 2>, 2>& J,
            const std::array<double, 2>& f, std::array<double, 2>& d) {
  const double det = J[0][0] * J[1][1] - J[0][1] * J[1][0];
  const double scale = std::max({std::abs(J[0][0]), std::abs(J[0][1]),
                                 std::abs(J[1][0]), std::abs(J[1][1])});
  if (scale == 0.0 || std::abs(det) < 1e-300 * scale * scale) return false;
  d[0] = (-f[0] * J[1][1] + f[1] * J[0][1]) / det;
  d[1] = (-J[0][0] * f[1] + J[1][0] * f[0]) / det;
  return std::isfinite(d[0]) && std::isfinite(d[1]);
}

double inf_norm(const std::array<double, 2>& v) {
  return std::max(std::abs(v[0]), std::abs(v[1]));
}

}  // namespace

SolveResult2 newton_2d(const Fn2& f, const Jac2& jac,
                       std::array<double, 2> x0, const NewtonOptions& opts,
                       std::optional<std::array<double, 2>> lower_bounds,
                       double bound_fraction) {
  RLC_TRACE_SPAN("newton_2d");
  auto& reg = obs::Registry::global();
  static const int kIters =
      reg.histogram("newton.2d.iterations", 1.0, 256.0, 16);
  static const int kSolves = reg.counter("newton.2d.solves");
  static const int kFailures = reg.counter("newton.2d.failures");
  static const int kBacktracks = reg.counter("newton.2d.backtracks");
  SolveResult2 r;
  SolveScope scope{kIters, kSolves, kFailures, &r.converged, &r.iterations};
  std::array<double, 2> x = x0;
  std::array<double, 2> fx = f(x);
  for (int it = 0; it < opts.max_iterations; ++it) {
    rlc::checkpoint();  // cooperative cancellation/deadline (free when unset)
    r.iterations = it;
    if (inf_norm(fx) <= opts.f_tolerance) {
      r.x = x;
      r.converged = true;
      r.residual = inf_norm(fx);
      return r;
    }
    std::array<double, 2> d{};
    if (!solve2(jac(x), fx, d)) break;
    // Respect lower bounds: shorten any step that would cross one.
    if (lower_bounds) {
      double alpha = 1.0;
      for (int i = 0; i < 2; ++i) {
        const double lb = (*lower_bounds)[i];
        if (x[i] + d[i] <= lb) {
          // Stop at bound_fraction of the distance to the bound.
          const double allowed = bound_fraction * (x[i] - lb);
          if (d[i] < 0.0) alpha = std::min(alpha, -allowed / d[i]);
        }
      }
      d[0] *= alpha;
      d[1] *= alpha;
    }
    std::array<double, 2> xn{x[0] + d[0], x[1] + d[1]};
    std::array<double, 2> fxn = f(xn);
    if (opts.damped) {
      int bt = 0;
      while ((!std::isfinite(fxn[0]) || !std::isfinite(fxn[1]) ||
              inf_norm(fxn) > inf_norm(fx)) &&
             bt < opts.max_backtracks) {
        d[0] *= 0.5;
        d[1] *= 0.5;
        xn = {x[0] + d[0], x[1] + d[1]};
        fxn = f(xn);
        ++bt;
      }
      if (bt > 0) reg.add(kBacktracks, bt);
      if (!std::isfinite(fxn[0]) || !std::isfinite(fxn[1])) break;
    }
    if (opts.x_tolerance > 0.0 &&
        inf_norm(d) <= opts.x_tolerance * (1.0 + inf_norm(xn))) {
      r.x = xn;
      r.residual = inf_norm(fxn);
      r.converged = std::isfinite(fxn[0]) && std::isfinite(fxn[1]);
      r.iterations = it + 1;
      return r;
    }
    x = xn;
    fx = fxn;
  }
  r.x = x;
  r.residual = inf_norm(fx);
  r.converged = r.residual <= opts.f_tolerance;
  return r;
}

Jac2 fd_jacobian_2d(const Fn2& f, double rel_step) {
  return [f, rel_step](const std::array<double, 2>& x) {
    std::array<std::array<double, 2>, 2> J{};
    for (int j = 0; j < 2; ++j) {
      const double h = rel_step * std::max(std::abs(x[j]), 1e-30);
      std::array<double, 2> xp = x, xm = x;
      xp[j] += h;
      xm[j] -= h;
      const auto fp = f(xp);
      const auto fm = f(xm);
      for (int i = 0; i < 2; ++i) J[i][j] = (fp[i] - fm[i]) / (2.0 * h);
    }
    return J;
  };
}

}  // namespace rlc::math
