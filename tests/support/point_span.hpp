#pragma once

/// \file point_span.hpp
/// Per-point-to-span adapter, a test-support helper (no library code uses
/// it): drives the inverters' span-of-nodes entries (TalbotContour, the
/// batch talbot_invert, euler_invert) with an analytic per-point transform
/// F(s), one call per node.

#include <complex>
#include <cstddef>

#include "rlc/laplace/talbot.hpp"

namespace rlc::laplace {

/// Binds as a BatchLaplaceFnRef.  Holds a non-owning view of the
/// transform: keep the callable alive while the adapter is in use.
struct PointSpan {
  LaplaceFnRef f;
  void operator()(const double* s_re, const double* s_im, double* f_re,
                  double* f_im, std::size_t n) const {
    for (std::size_t i = 0; i < n; ++i) {
      const std::complex<double> v = f({s_re[i], s_im[i]});
      f_re[i] = v.real();
      f_im[i] = v.imag();
    }
  }
};

}  // namespace rlc::laplace
