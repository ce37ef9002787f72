/// \file batch_evaluator_avx2.cpp
/// Stages 1 and 3 of BatchTransferEvaluator::eval four nodes at a time.
/// The only rlc_tline translation unit built with -mavx2, and with
/// -mno-fma -ffp-contract=off: each lane does the scalar stages' IEEE
/// operations (batch_kernel.hpp) in the same order, so the results carry
/// the scalar stages' bits.  std::max(x, y) is _mm256_max_pd(y, x), a
/// branch is a blend of both sides, and a group of four holding a node
/// that takes another branch of stage 3 (the series guard, a non-finite
/// exponential or denominator, the unscaled reciprocal) runs the scalar
/// per-node code, as does the tail of a block.  Reached only after cpuid
/// reported AVX2 (simd::Level::kAvx2).

#if defined(RLC_TLINE_HAVE_AVX2)

#if defined(__FMA__)
// A fused multiply-add rounds once where the scalar stages round twice.
#error "batch_evaluator_avx2.cpp must be built without FMA (-mno-fma)"
#endif

#include <immintrin.h>

#include <cmath>
#include <cstddef>

#include "batch_kernel.hpp"

namespace rlc::tline::detail {

namespace {

// Vector constants are built inside the functions: a namespace-scope
// __m256d would be initialized at start-up, before any cpuid check.
inline __m256d sign4() { return _mm256_set1_pd(-0.0); }

inline __m256d abs4(__m256d x) { return _mm256_andnot_pd(sign4(), x); }

/// Lanes where !std::isfinite(x).
inline __m256d not_finite4(__m256d x) {
  return _mm256_cmp_pd(abs4(x), _mm256_set1_pd(HUGE_VAL), _CMP_NLT_UQ);
}

struct Recip4 {
  __m256d r, i;
  __m256d unscaled;  ///< lanes crecip sends to its unscaled form
};

/// crecip four lanes at a time.
inline Recip4 crecip4(__m256d a, __m256d b) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d m = _mm256_max_pd(abs4(b), abs4(a));
  const __m256d sc = _mm256_div_pd(one, m);
  const __m256d as = _mm256_mul_pd(a, sc);
  const __m256d bs = _mm256_mul_pd(b, sc);
  const __m256d minv = _mm256_div_pd(
      one, _mm256_add_pd(_mm256_mul_pd(as, as), _mm256_mul_pd(bs, bs)));
  Recip4 out;
  out.r = _mm256_mul_pd(_mm256_mul_pd(sc, as), minv);
  out.i = _mm256_xor_pd(_mm256_mul_pd(_mm256_mul_pd(sc, bs), minv), sign4());
  // !std::isfinite(sc) || sc <= 0
  out.unscaled =
      _mm256_or_pd(not_finite4(sc),
                   _mm256_cmp_pd(sc, _mm256_setzero_pd(), _CMP_LE_OQ));
  return out;
}

}  // namespace

void stage1_avx2(const TransferInvariants& k, const double* sr,
                 const double* si, std::size_t m, double* zr, double* zi,
                 double* wr, double* wi, double* th_re, double* th_im) {
  const __m256d rh = _mm256_set1_pd(k.rh);
  const __m256d lh = _mm256_set1_pd(k.lh);
  const __m256d ch = _mm256_set1_pd(k.ch);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m256d a = _mm256_loadu_pd(sr + i);
    const __m256d b = _mm256_loadu_pd(si + i);
    const __m256d zre = _mm256_add_pd(rh, _mm256_mul_pd(a, lh));
    const __m256d zim = _mm256_mul_pd(b, lh);
    const __m256d yre = _mm256_mul_pd(a, ch);
    const __m256d yim = _mm256_mul_pd(b, ch);
    _mm256_storeu_pd(zr + i, zre);
    _mm256_storeu_pd(zi + i, zim);
    const __m256d pre =
        _mm256_sub_pd(_mm256_mul_pd(zre, yre), _mm256_mul_pd(zim, yim));
    const __m256d pim =
        _mm256_add_pd(_mm256_mul_pd(zre, yim), _mm256_mul_pd(zim, yre));
    _mm256_storeu_pd(wr + i, pre);
    _mm256_storeu_pd(wi + i, pim);
    const __m256d mag = _mm256_sqrt_pd(
        _mm256_add_pd(_mm256_mul_pd(pre, pre), _mm256_mul_pd(pim, pim)));
    const __m256d hpim = _mm256_mul_pd(half, pim);
    // pre >= 0: tre = sqrt(0.5 (mag + pre)), tim = tre > 0 ? 0.5 pim / tre : 0
    const __m256d tre_p =
        _mm256_sqrt_pd(_mm256_mul_pd(half, _mm256_add_pd(mag, pre)));
    const __m256d tim_p =
        _mm256_and_pd(_mm256_cmp_pd(tre_p, zero, _CMP_GT_OQ),
                      _mm256_div_pd(hpim, tre_p));
    // pre < 0: tim = copysign(sqrt(0.5 (mag - pre)), pim),
    // tre = pim == 0 ? 0 : 0.5 pim / tim
    const __m256d tim_n = _mm256_or_pd(
        abs4(_mm256_sqrt_pd(_mm256_mul_pd(half, _mm256_sub_pd(mag, pre)))),
        _mm256_and_pd(sign4(), pim));
    const __m256d tre_n =
        _mm256_andnot_pd(_mm256_cmp_pd(pim, zero, _CMP_EQ_OQ),
                         _mm256_div_pd(hpim, tim_n));
    const __m256d nonneg = _mm256_cmp_pd(pre, zero, _CMP_GE_OQ);
    _mm256_storeu_pd(th_re + i, _mm256_blendv_pd(tre_n, tre_p, nonneg));
    _mm256_storeu_pd(th_im + i, _mm256_blendv_pd(tim_n, tim_p, nonneg));
  }
  for (; i < m; ++i) {
    stage1_node(k, sr[i], si[i], zr[i], zi[i], wr[i], wi[i], th_re[i],
                th_im[i]);
  }
}

void stage3_avx2(const TransferInvariants& k, const double* sr,
                 const double* si, const double* th_re, const double* th_im,
                 const double* e_re, const double* e_im, const double* zr,
                 const double* zi, const double* wr, const double* wi,
                 std::size_t m, bool divide_by_s, double* out_re,
                 double* out_im) {
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d guard = _mm256_set1_pd(kSeriesGuardThresholdSq);
  const __m256d rs_cp_cl = _mm256_set1_pd(k.rs_cp_cl);
  const __m256d rs_ch = _mm256_set1_pd(k.rs_ch);
  const __m256d cl = _mm256_set1_pd(k.cl);
  const __m256d rs_cp_cl2 = _mm256_set1_pd(k.rs_cp_cl2);
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m256d er = _mm256_loadu_pd(e_re + i);
    const __m256d ei = _mm256_loadu_pd(e_im + i);
    const __m256d w_r = _mm256_loadu_pd(wr + i);
    const __m256d w_i = _mm256_loadu_pd(wi + i);
    // Lanes for the scalar code: a non-finite exponential or the series
    // guard, then each reciprocal's unscaled form and the denominator.
    __m256d scalar = _mm256_or_pd(not_finite4(er), not_finite4(ei));
    scalar = _mm256_or_pd(
        scalar,
        _mm256_cmp_pd(_mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(w_r, w_r),
                                                   _mm256_mul_pd(w_i, w_i))),
                      guard, _CMP_LT_OQ));

    const Recip4 iv = crecip4(er, ei);  // 1/e
    const __m256d chr = _mm256_mul_pd(half, _mm256_add_pd(er, iv.r));
    const __m256d chi = _mm256_mul_pd(half, _mm256_add_pd(ei, iv.i));
    const Recip4 tv = crecip4(_mm256_loadu_pd(th_re + i),
                              _mm256_loadu_pd(th_im + i));  // 1/th
    const __m256d dr = _mm256_mul_pd(half, _mm256_sub_pd(er, iv.r));
    const __m256d di = _mm256_mul_pd(half, _mm256_sub_pd(ei, iv.i));
    const __m256d shr =
        _mm256_sub_pd(_mm256_mul_pd(dr, tv.r), _mm256_mul_pd(di, tv.i));
    const __m256d shi =
        _mm256_add_pd(_mm256_mul_pd(dr, tv.i), _mm256_mul_pd(di, tv.r));
    scalar = _mm256_or_pd(scalar, _mm256_or_pd(iv.unscaled, tv.unscaled));

    const __m256d a = _mm256_loadu_pd(sr + i);
    const __m256d b = _mm256_loadu_pd(si + i);
    const __m256d g1r = _mm256_add_pd(one, _mm256_mul_pd(a, rs_cp_cl));
    const __m256d g1i = _mm256_mul_pd(b, rs_cp_cl);
    const __m256d g2r = _mm256_mul_pd(a, rs_ch);
    const __m256d g2i = _mm256_mul_pd(b, rs_ch);
    const __m256d s2r = _mm256_sub_pd(_mm256_mul_pd(a, a), _mm256_mul_pd(b, b));
    const __m256d s2i = _mm256_mul_pd(_mm256_mul_pd(two, a), b);
    const __m256d pr =
        _mm256_add_pd(_mm256_mul_pd(a, cl), _mm256_mul_pd(s2r, rs_cp_cl2));
    const __m256d pi =
        _mm256_add_pd(_mm256_mul_pd(b, cl), _mm256_mul_pd(s2i, rs_cp_cl2));
    const __m256d z_r = _mm256_loadu_pd(zr + i);
    const __m256d z_i = _mm256_loadu_pd(zi + i);
    const __m256d g3r =
        _mm256_sub_pd(_mm256_mul_pd(pr, z_r), _mm256_mul_pd(pi, z_i));
    const __m256d g3i =
        _mm256_add_pd(_mm256_mul_pd(pr, z_i), _mm256_mul_pd(pi, z_r));
    const __m256d g23r = _mm256_add_pd(g2r, g3r);
    const __m256d g23i = _mm256_add_pd(g2i, g3i);
    const __m256d denr = _mm256_sub_pd(
        _mm256_add_pd(
            _mm256_sub_pd(_mm256_mul_pd(g1r, chr), _mm256_mul_pd(g1i, chi)),
            _mm256_mul_pd(g23r, shr)),
        _mm256_mul_pd(g23i, shi));
    const __m256d deni = _mm256_add_pd(
        _mm256_add_pd(
            _mm256_add_pd(_mm256_mul_pd(g1r, chi), _mm256_mul_pd(g1i, chr)),
            _mm256_mul_pd(g23r, shi)),
        _mm256_mul_pd(g23i, shr));
    scalar = _mm256_or_pd(scalar,
                          _mm256_or_pd(not_finite4(denr), not_finite4(deni)));

    const Recip4 h = crecip4(denr, deni);
    scalar = _mm256_or_pd(scalar, h.unscaled);
    __m256d hr = h.r, hi = h.i;
    if (divide_by_s) {
      const Recip4 sv = crecip4(a, b);
      scalar = _mm256_or_pd(scalar, sv.unscaled);
      hr = _mm256_sub_pd(_mm256_mul_pd(h.r, sv.r), _mm256_mul_pd(h.i, sv.i));
      hi = _mm256_add_pd(_mm256_mul_pd(h.r, sv.i), _mm256_mul_pd(h.i, sv.r));
    }
    if (_mm256_movemask_pd(scalar) != 0) {
      for (std::size_t j = i; j < i + 4; ++j) {
        stage3_node(k, sr[j], si[j], th_re[j], th_im[j], e_re[j], e_im[j],
                    zr[j], zi[j], wr[j], wi[j], divide_by_s, out_re[j],
                    out_im[j]);
      }
      continue;
    }
    _mm256_storeu_pd(out_re + i, hr);
    _mm256_storeu_pd(out_im + i, hi);
  }
  for (; i < m; ++i) {
    stage3_node(k, sr[i], si[i], th_re[i], th_im[i], e_re[i], e_im[i], zr[i],
                zi[i], wr[i], wi[i], divide_by_s, out_re[i], out_im[i]);
  }
}

}  // namespace rlc::tline::detail

#endif  // RLC_TLINE_HAVE_AVX2
