#include "rlc/tline/batch_evaluator.hpp"

#include <algorithm>
#include <cmath>

#include "batch_kernel.hpp"
#include "rlc/obs/metrics.hpp"

namespace rlc::tline {

namespace {

// Stage buffers live on the stack; blocks keep them inside L1 while still
// amortizing the vectorized exp over full SIMD sweeps.
constexpr std::size_t kBlock = 128;

void stage1(simd::Level level, const detail::TransferInvariants& k,
            const double* sr, const double* si, std::size_t m, double* zr,
            double* zi, double* wr, double* wi, double* th_re,
            double* th_im) {
#if defined(RLC_TLINE_HAVE_AVX2)
  if (level == simd::Level::kAvx2) {
    detail::stage1_avx2(k, sr, si, m, zr, zi, wr, wi, th_re, th_im);
    return;
  }
#endif
  (void)level;
  for (std::size_t i = 0; i < m; ++i) {
    detail::stage1_node(k, sr[i], si[i], zr[i], zi[i], wr[i], wi[i],
                        th_re[i], th_im[i]);
  }
}

void stage3(simd::Level level, const detail::TransferInvariants& k,
            const double* sr, const double* si, const double* th_re,
            const double* th_im, const double* e_re, const double* e_im,
            const double* zr, const double* zi, const double* wr,
            const double* wi, std::size_t m, bool divide_by_s, double* out_re,
            double* out_im) {
#if defined(RLC_TLINE_HAVE_AVX2)
  if (level == simd::Level::kAvx2) {
    detail::stage3_avx2(k, sr, si, th_re, th_im, e_re, e_im, zr, zi, wr, wi,
                        m, divide_by_s, out_re, out_im);
    return;
  }
#endif
  (void)level;
  for (std::size_t i = 0; i < m; ++i) {
    detail::stage3_node(k, sr[i], si[i], th_re[i], th_im[i], e_re[i],
                        e_im[i], zr[i], zi[i], wr[i], wi[i], divide_by_s,
                        out_re[i], out_im[i]);
  }
}

}  // namespace

BatchTransferEvaluator::BatchTransferEvaluator(const LineParams& line,
                                               double h, const DriverLoad& dl,
                                               simd::Level level)
    : level_(level) {
  line.validate();
  inv_.rs_cp_cl = dl.rs_eff * (dl.cp_eff + dl.cl_eff);
  inv_.rs_ch = dl.rs_eff * line.c * h;
  inv_.cl = dl.cl_eff;
  inv_.rs_cp_cl2 = dl.rs_eff * dl.cp_eff * dl.cl_eff;
  inv_.ch = line.c * h;
  inv_.lh = line.l * h;
  inv_.rh = line.r * h;
}

BatchTransferEvaluator::~BatchTransferEvaluator() {
  auto& reg = obs::Registry::global();
  static const int kEvals = reg.counter("tline.transfer.evals");
  static const int kPasses = reg.counter("tline.transfer.batch_passes");
  if (evaluations_ > 0) {
    reg.add(kEvals, static_cast<std::int64_t>(evaluations_));
  }
  if (passes_ > 0) {
    reg.add(kPasses, static_cast<std::int64_t>(passes_));
  }
}

void BatchTransferEvaluator::eval(const double* s_re, const double* s_im,
                                  double* out_re, double* out_im,
                                  std::size_t n, bool divide_by_s) const {
  double th_re[kBlock], th_im[kBlock];  // theta h = sqrt(zser ypar) h
  double e_re[kBlock], e_im[kBlock];    // exp(theta h)
  double zr[kBlock], zi[kBlock];        // zser h = (r + s l) h
  double wr[kBlock], wi[kBlock];        // (theta h)^2 = zser ypar h^2

  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t m = std::min(kBlock, n - base);
    const double* sr = s_re + base;
    const double* si = s_im + base;
    stage1(level_, inv_, sr, si, m, zr, zi, wr, wi, th_re, th_im);
    // Stage 2: the transcendental core — ONE vectorized complex exp sweep.
    simd::cexp_pd(level_, th_re, th_im, e_re, e_im, m);
    stage3(level_, inv_, sr, si, th_re, th_im, e_re, e_im, zr, zi, wr, wi, m,
           divide_by_s, out_re + base, out_im + base);
  }

  evaluations_ += n;
  ++passes_;
}

void BatchTransferEvaluator::transfer(const double* s_re, const double* s_im,
                                      double* h_re, double* h_im,
                                      std::size_t n) const {
  eval(s_re, s_im, h_re, h_im, n, /*divide_by_s=*/false);
}

void BatchTransferEvaluator::step(const double* s_re, const double* s_im,
                                  double* f_re, double* f_im,
                                  std::size_t n) const {
  eval(s_re, s_im, f_re, f_im, n, /*divide_by_s=*/true);
}

std::complex<double> BatchTransferEvaluator::transfer(
    std::complex<double> s) const {
  const double sr = s.real(), si = s.imag();
  double hr, hi;
  eval(&sr, &si, &hr, &hi, 1, /*divide_by_s=*/false);
  return {hr, hi};
}

std::complex<double> BatchTransferEvaluator::step(
    std::complex<double> s) const {
  const double sr = s.real(), si = s.imag();
  double fr, fi;
  eval(&sr, &si, &fr, &fi, 1, /*divide_by_s=*/true);
  return {fr, fi};
}

}  // namespace rlc::tline
