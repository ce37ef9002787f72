#include "support/batch_evaluator_reference.hpp"

#include <algorithm>
#include <cmath>

namespace rlc::tline {

namespace {

constexpr std::size_t kBlock = 128;

/// Series-guard threshold on |theta h|^2 (the library's
/// detail::kSeriesGuardThresholdSq).
constexpr double kSeriesGuardThresholdSq = 1e-4 * 1e-4;

inline void crecip(double a, double b, double& rr, double& ri) {
  const double m = std::max(std::abs(a), std::abs(b));
  const double sc = 1.0 / m;
  if (!std::isfinite(sc) || sc <= 0.0) {
    const double d = a * a + b * b;
    rr = a / d;
    ri = -b / d;
    return;
  }
  const double as = a * sc;
  const double bs = b * sc;
  const double minv = 1.0 / (as * as + bs * bs);
  rr = sc * as * minv;
  ri = -(sc * bs * minv);
}

}  // namespace

void reference_batch_eval(const LineParams& line, double h,
                          const DriverLoad& dl, simd::Level level,
                          const double* s_re, const double* s_im,
                          double* out_re, double* out_im, std::size_t n,
                          bool divide_by_s) {
  const double rs_cp_cl_ = dl.rs_eff * (dl.cp_eff + dl.cl_eff);
  const double rs_ch_ = dl.rs_eff * line.c * h;
  const double cl_ = dl.cl_eff;
  const double rs_cp_cl2_ = dl.rs_eff * dl.cp_eff * dl.cl_eff;
  const double ch_ = line.c * h;
  const double lh_ = line.l * h;
  const double rh_ = line.r * h;

  double th_re[kBlock], th_im[kBlock];
  double e_re[kBlock], e_im[kBlock];
  double zr[kBlock], zi[kBlock];
  double wr[kBlock], wi[kBlock];

  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t m = std::min(kBlock, n - base);
    const double* sr = s_re + base;
    const double* si = s_im + base;

    for (std::size_t i = 0; i < m; ++i) {
      const double zre = rh_ + sr[i] * lh_;
      const double zim = si[i] * lh_;
      const double yre = sr[i] * ch_;
      const double yim = si[i] * ch_;
      zr[i] = zre;
      zi[i] = zim;
      const double pre = zre * yre - zim * yim;
      const double pim = zre * yim + zim * yre;
      wr[i] = pre;
      wi[i] = pim;
      const double mag = std::sqrt(pre * pre + pim * pim);
      double tre, tim;
      if (pre >= 0.0) {
        tre = std::sqrt(0.5 * (mag + pre));
        tim = tre > 0.0 ? 0.5 * pim / tre : 0.0;
      } else {
        tim = std::copysign(std::sqrt(0.5 * (mag - pre)), pim);
        tre = pim == 0.0 ? 0.0 : 0.5 * pim / tim;
      }
      th_re[i] = tre;
      th_im[i] = tim;
    }

    simd::cexp_pd(level, th_re, th_im, e_re, e_im, m);

    for (std::size_t i = 0; i < m; ++i) {
      if (!(std::isfinite(e_re[i]) && std::isfinite(e_im[i]))) {
        out_re[base + i] = 0.0;
        out_im[base + i] = 0.0;
        continue;
      }
      double chr, chi, shr, shi;
      if (std::sqrt(wr[i] * wr[i] + wi[i] * wi[i]) < kSeriesGuardThresholdSq) {
        const double w2r = wr[i] * wr[i] - wi[i] * wi[i];
        const double w2i = 2.0 * wr[i] * wi[i];
        chr = 1.0 + 0.5 * wr[i] + w2r / 24.0;
        chi = 0.5 * wi[i] + w2i / 24.0;
        shr = 1.0 + wr[i] / 6.0 + w2r / 120.0;
        shi = wi[i] / 6.0 + w2i / 120.0;
      } else {
        double ivr, ivi;
        crecip(e_re[i], e_im[i], ivr, ivi);
        chr = 0.5 * (e_re[i] + ivr);
        chi = 0.5 * (e_im[i] + ivi);
        double tvr, tvi;
        crecip(th_re[i], th_im[i], tvr, tvi);
        const double dr = 0.5 * (e_re[i] - ivr);
        const double di = 0.5 * (e_im[i] - ivi);
        shr = dr * tvr - di * tvi;
        shi = dr * tvi + di * tvr;
      }

      const double a = sr[i];
      const double b = si[i];
      const double g1r = 1.0 + a * rs_cp_cl_;
      const double g1i = b * rs_cp_cl_;
      const double g2r = a * rs_ch_;
      const double g2i = b * rs_ch_;
      const double s2r = a * a - b * b;
      const double s2i = 2.0 * a * b;
      const double pr = a * cl_ + s2r * rs_cp_cl2_;
      const double pi = b * cl_ + s2i * rs_cp_cl2_;
      const double g3r = pr * zr[i] - pi * zi[i];
      const double g3i = pr * zi[i] + pi * zr[i];
      const double g23r = g2r + g3r;
      const double g23i = g2i + g3i;
      const double denr = g1r * chr - g1i * chi + g23r * shr - g23i * shi;
      const double deni = g1r * chi + g1i * chr + g23r * shi + g23i * shr;

      if (!(std::isfinite(denr) && std::isfinite(deni))) {
        out_re[base + i] = 0.0;
        out_im[base + i] = 0.0;
        continue;
      }
      double hr, hi;
      crecip(denr, deni, hr, hi);
      if (divide_by_s) {
        double svr, svi;
        crecip(a, b, svr, svi);
        out_re[base + i] = hr * svr - hi * svi;
        out_im[base + i] = hr * svi + hi * svr;
      } else {
        out_re[base + i] = hr;
        out_im[base + i] = hi;
      }
    }
  }
}

}  // namespace rlc::tline
