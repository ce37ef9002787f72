#include "rlc/math/brent.hpp"

#include "rlc/base/cancel.hpp"

#include <algorithm>
#include <cmath>

#include "rlc/obs/metrics.hpp"
#include "rlc/obs/trace.hpp"

namespace rlc::math {

namespace {

/// Records one Brent solve (iterations histogram + solves/failures) when
/// the enclosing call returns; observation only, never feeds back.
struct BrentScope {
  int iters_hist;
  int solves;
  int failures;
  const bool* converged;
  const int* iterations;
  ~BrentScope() {
    auto& reg = obs::Registry::global();
    reg.add(solves);
    if (!*converged) reg.add(failures);
    reg.record(iters_hist, static_cast<double>(*iterations));
  }
};

}  // namespace

BrentResult brent_root(rlc::FunctionRef<double(double)> f, double a,
                       double b, double tol, int max_iter) {
  RLC_TRACE_SPAN("brent_root");
  auto& reg = obs::Registry::global();
  static const int kIters =
      reg.histogram("brent.root.iterations", 1.0, 256.0, 16);
  static const int kSolves = reg.counter("brent.root.solves");
  static const int kFailures = reg.counter("brent.root.failures");
  BrentResult r;
  BrentScope scope{kIters, kSolves, kFailures, &r.converged, &r.iterations};
  double fa = f(a), fb = f(b);
  if (fa == 0.0) {
    r = {a, 0.0, 0, true};
    return r;
  }
  if (fb == 0.0) {
    r = {b, 0.0, 0, true};
    return r;
  }
  if (fa * fb > 0.0) {
    r.converged = false;
    return r;
  }
  double c = a, fc = fa;
  double d = b - a, e = d;
  for (int it = 0; it < max_iter; ++it) {
    rlc::checkpoint();  // cooperative cancellation/deadline (free when unset)
    r.iterations = it + 1;
    if (std::abs(fc) < std::abs(fb)) {
      a = b;
      b = c;
      c = a;
      fa = fb;
      fb = fc;
      fc = fa;
    }
    const double tol1 = 2.0 * std::numeric_limits<double>::epsilon() * std::abs(b) + 0.5 * tol;
    const double xm = 0.5 * (c - b);
    if (std::abs(xm) <= tol1 || fb == 0.0) {
      r.x = b;
      r.fx = fb;
      r.converged = true;
      return r;
    }
    if (std::abs(e) >= tol1 && std::abs(fa) > std::abs(fb)) {
      double p, q;
      const double s = fb / fa;
      if (a == c) {
        p = 2.0 * xm * s;
        q = 1.0 - s;
      } else {
        const double qq = fa / fc;
        const double rr = fb / fc;
        p = s * (2.0 * xm * qq * (qq - rr) - (b - a) * (rr - 1.0));
        q = (qq - 1.0) * (rr - 1.0) * (s - 1.0);
      }
      if (p > 0.0) q = -q;
      p = std::abs(p);
      const double min1 = 3.0 * xm * q - std::abs(tol1 * q);
      const double min2 = std::abs(e * q);
      if (2.0 * p < std::min(min1, min2)) {
        e = d;
        d = p / q;
      } else {
        d = xm;
        e = d;
      }
    } else {
      d = xm;
      e = d;
    }
    a = b;
    fa = fb;
    b += (std::abs(d) > tol1) ? d : (xm > 0.0 ? tol1 : -tol1);
    fb = f(b);
    if (fb * fc > 0.0) {
      c = a;
      fc = fa;
      e = b - a;
      d = e;
    }
  }
  r.x = b;
  r.fx = fb;
  r.converged = false;
  return r;
}

MinResult brent_minimize(rlc::FunctionRef<double(double)> f, double a,
                         double b, double tol, int max_iter) {
  static constexpr double kGolden = 0.3819660112501051;
  auto& reg = obs::Registry::global();
  static const int kIters =
      reg.histogram("brent.minimize.iterations", 1.0, 256.0, 16);
  static const int kSolves = reg.counter("brent.minimize.solves");
  static const int kFailures = reg.counter("brent.minimize.failures");
  MinResult res;
  BrentScope scope{kIters, kSolves, kFailures, &res.converged,
                   &res.iterations};
  double x = a + kGolden * (b - a);
  double w = x, v = x;
  double fx = f(x), fw = fx, fv = fx;
  double d = 0.0, e = 0.0;
  for (int it = 0; it < max_iter; ++it) {
    rlc::checkpoint();  // cooperative cancellation/deadline (free when unset)
    res.iterations = it + 1;
    const double xm = 0.5 * (a + b);
    const double tol1 = tol * std::abs(x) + 1e-300;
    const double tol2 = 2.0 * tol1;
    if (std::abs(x - xm) <= tol2 - 0.5 * (b - a)) {
      res.x = x;
      res.fx = fx;
      res.converged = true;
      return res;
    }
    bool use_golden = true;
    if (std::abs(e) > tol1) {
      // Parabolic fit through x, v, w.
      const double r = (x - w) * (fx - fv);
      double q = (x - v) * (fx - fw);
      double p = (x - v) * q - (x - w) * r;
      q = 2.0 * (q - r);
      if (q > 0.0) p = -p;
      q = std::abs(q);
      const double etemp = e;
      e = d;
      if (std::abs(p) < std::abs(0.5 * q * etemp) && p > q * (a - x) &&
          p < q * (b - x)) {
        d = p / q;
        const double u = x + d;
        if (u - a < tol2 || b - u < tol2) d = (xm - x >= 0.0) ? tol1 : -tol1;
        use_golden = false;
      }
    }
    if (use_golden) {
      e = (x >= xm) ? a - x : b - x;
      d = kGolden * e;
    }
    const double u = (std::abs(d) >= tol1) ? x + d : x + ((d >= 0.0) ? tol1 : -tol1);
    const double fu = f(u);
    if (fu <= fx) {
      if (u >= x)
        a = x;
      else
        b = x;
      v = w;
      fv = fw;
      w = x;
      fw = fx;
      x = u;
      fx = fu;
    } else {
      if (u < x)
        a = u;
      else
        b = u;
      if (fu <= fw || w == x) {
        v = w;
        fv = fw;
        w = u;
        fw = fu;
      } else if (fu <= fv || v == x || v == w) {
        v = u;
        fv = fu;
      }
    }
  }
  res.x = x;
  res.fx = fx;
  res.converged = false;
  return res;
}

}  // namespace rlc::math
