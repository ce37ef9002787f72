#pragma once

/// \file batch_kernel.hpp
/// The per-node stages 1 and 3 of BatchTransferEvaluator::eval, shared by
/// batch_evaluator.cpp (the scalar stages) and batch_evaluator_avx2.cpp
/// (its tails and the groups of four it hands back), and the AVX2 stage
/// entry points.  Internal to rlc_tline.

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "rlc/tline/batch_evaluator.hpp"
#include "transfer_detail.hpp"

namespace rlc::tline::detail {

// Internal linkage on purpose: batch_evaluator_avx2.cpp compiles these with
// -mavx2 and batch_evaluator.cpp without, and with external linkage the
// linker could keep the AVX2 copy for both.
namespace {

/// 1/(a + ib) with the magnitudes pre-scaled so |denominator| anywhere in
/// the normal range neither overflows nor underflows the intermediate
/// squares (the plain conj/|z|^2 form dies near sqrt(DBL_MAX)).
inline void crecip(double a, double b, double& rr, double& ri) {
  const double m = std::max(std::abs(a), std::abs(b));
  const double sc = 1.0 / m;
  if (!std::isfinite(sc) || sc <= 0.0) {
    // m is 0, inf or NaN: no finite reciprocal exists; the naive form
    // propagates the right inf/NaN flavor.
    const double d = a * a + b * b;
    rr = a / d;
    ri = -b / d;
    return;
  }
  const double as = a * sc;
  const double bs = b * sc;
  const double minv = 1.0 / (as * as + bs * bs);  // scaled |z|^2 in [1, 2]
  rr = sc * as * minv;
  ri = -(sc * bs * minv);
}

/// Stage 1 at one node s = sr + i si: zser h, (theta h)^2 = zser ypar h^2
/// and its principal sqrt theta h, with Re(theta h) >= 0 so exp(theta h)
/// never underflows into the 1/e reciprocal.
inline void stage1_node(const TransferInvariants& k, double sr, double si,
                        double& zr, double& zi, double& wr, double& wi,
                        double& th_re, double& th_im) {
  const double zre = k.rh + sr * k.lh;
  const double zim = si * k.lh;
  const double yre = sr * k.ch;
  const double yim = si * k.ch;
  zr = zre;
  zi = zim;
  const double pre = zre * yre - zim * yim;
  const double pim = zre * yim + zim * yre;
  wr = pre;
  wi = pim;
  const double mag = std::sqrt(pre * pre + pim * pim);
  double tre, tim;
  if (pre >= 0.0) {
    tre = std::sqrt(0.5 * (mag + pre));
    tim = tre > 0.0 ? 0.5 * pim / tre : 0.0;
  } else {
    tim = std::copysign(std::sqrt(0.5 * (mag - pre)), pim);
    tre = pim == 0.0 ? 0.0 : 0.5 * pim / tim;
  }
  th_re = tre;
  th_im = tim;
}

/// Stage 3 at one node a + ib: cosh/sinhc from e = exp(theta h) and 1/e,
/// the dc-safe denominator and its reciprocal H (H/s if divide_by_s).
inline void stage3_node(const TransferInvariants& k, double a, double b,
                        double th_re, double th_im, double e_re, double e_im,
                        double zr, double zi, double wr, double wi,
                        bool divide_by_s, double& out_re, double& out_im) {
  // exp(theta h) overflowed: |denominator| grows like |e|, so H (and H/s)
  // is 0 to double precision.  The per-point path reaches the same value
  // through IEEE inf arithmetic (1/inf); division chains on inf operands
  // would hand us NaN instead, so saturate explicitly.
  if (!(std::isfinite(e_re) && std::isfinite(e_im))) {
    out_re = 0.0;
    out_im = 0.0;
    return;
  }
  double chr, chi, shr, shi;  // cosh(th), sinh(th)/th
  // Same guard as detail::sinhc: |th| < t  <=>  |th^2| < t^2.
  if (std::sqrt(wr * wr + wi * wi) < kSeriesGuardThresholdSq) {
    // Series in w = th^2, analytic through th = 0.
    const double w2r = wr * wr - wi * wi;
    const double w2i = 2.0 * wr * wi;
    chr = 1.0 + 0.5 * wr + w2r / 24.0;
    chi = 0.5 * wi + w2i / 24.0;
    shr = 1.0 + wr / 6.0 + w2r / 120.0;
    shi = wi / 6.0 + w2i / 120.0;
  } else {
    double ivr, ivi;  // 1/e
    crecip(e_re, e_im, ivr, ivi);
    chr = 0.5 * (e_re + ivr);
    chi = 0.5 * (e_im + ivi);
    double tvr, tvi;  // 1/th
    crecip(th_re, th_im, tvr, tvi);
    const double dr = 0.5 * (e_re - ivr);
    const double di = 0.5 * (e_im - ivi);
    shr = dr * tvr - di * tvi;
    shi = dr * tvi + di * tvr;
  }

  // g1 = 1 + s Rs(Cp+Cl)
  const double g1r = 1.0 + a * k.rs_cp_cl;
  const double g1i = b * k.rs_cp_cl;
  // g2 = s Rs c h
  const double g2r = a * k.rs_ch;
  const double g2i = b * k.rs_ch;
  // g3 = (s Cl + s^2 Rs Cp Cl) zser h
  const double s2r = a * a - b * b;
  const double s2i = 2.0 * a * b;
  const double pr = a * k.cl + s2r * k.rs_cp_cl2;
  const double pi = b * k.cl + s2i * k.rs_cp_cl2;
  const double g3r = pr * zr - pi * zi;
  const double g3i = pr * zi + pi * zr;
  // denom = g1 ch + (g2 + g3) shc
  const double g23r = g2r + g3r;
  const double g23i = g2i + g3i;
  const double denr = g1r * chr - g1i * chi + g23r * shr - g23i * shi;
  const double deni = g1r * chi + g1i * chr + g23r * shi + g23i * shr;

  // Same saturation for a denominator that overflowed on its own (huge
  // cosh/sinhc times the line coefficients): 1/inf == 0.
  if (!(std::isfinite(denr) && std::isfinite(deni))) {
    out_re = 0.0;
    out_im = 0.0;
    return;
  }
  double hr, hi;
  crecip(denr, deni, hr, hi);
  if (divide_by_s) {
    double svr, svi;
    crecip(a, b, svr, svi);
    out_re = hr * svr - hi * svi;
    out_im = hr * svi + hi * svr;
  } else {
    out_re = hr;
    out_im = hi;
  }
}

}  // namespace

#if defined(RLC_TLINE_HAVE_AVX2)
/// Stage 1 over m nodes, four at a time (batch_evaluator_avx2.cpp).  Call
/// only when cpuid reported AVX2.
void stage1_avx2(const TransferInvariants& k, const double* sr,
                 const double* si, std::size_t m, double* zr, double* zi,
                 double* wr, double* wi, double* th_re, double* th_im);

/// Stage 3 over m nodes, four at a time; writes out_re/out_im[0, m).
void stage3_avx2(const TransferInvariants& k, const double* sr,
                 const double* si, const double* th_re, const double* th_im,
                 const double* e_re, const double* e_im, const double* zr,
                 const double* zi, const double* wr, const double* wi,
                 std::size_t m, bool divide_by_s, double* out_re,
                 double* out_im);
#endif

}  // namespace rlc::tline::detail
