#pragma once

/// \file batch_evaluator.hpp
/// BatchTransferEvaluator: the exact Eq. (1) transfer function evaluated at
/// a whole span of s nodes in one structure-of-arrays pass.  This is the
/// one transfer evaluator of the exact-waveform engine: every Talbot
/// contour (shared windows and per-t inversions alike) and every Euler
/// span is filled through it.
///
/// Against calling exact_transfer_dc_safe() in a loop it
///   * hoists every s-independent invariant of the denominator at
///     construction (driver/load products, c*h, l*h, r*h),
///   * takes cosh(theta h) and sinh(theta h)/(theta h) from ONE complex
///     exponential, and batches every such exp through ONE
///     rlc::simd::cexp_pd call per block (AVX2+FMA when the host has it,
///     scalar libm otherwise — selectable per instance for head-to-head
///     benches),
///   * makes no per-node calls: no allocation and no std::function
///     dispatch anywhere on the path.
///
/// An evaluation runs in blocks of nodes, each in three stages: (1) the
/// impedance products and the principal sqrt theta*h, (2) exp(theta*h)
/// through rlc::simd::cexp_pd, (3) cosh, sinh/theta and the reciprocal of
/// the dc-safe denominator.  At simd::Level::kAvx2, stages 1 and 3 run
/// four nodes at a time (batch_evaluator_avx2.cpp), each lane doing the
/// scalar stages' IEEE operations in the same order with no FMA; a group
/// of four that holds a node needing the series guard, a non-finite
/// exponential or denominator, or the unscaled reciprocal runs the scalar
/// per-node code.  Without AVX2 or under RLC_SIMD=off the scalar stages
/// are the only path.
///
/// Accuracy: the scalar level matches exact_transfer_dc_safe to ~1e-12
/// relative (same denominator, one exp instead of cosh + sinh, different
/// division/sqrt sequencing).  The AVX2 stages give the scalar stages'
/// bits; only stage 2's cexp differs by level (the AVX2 cexp matches libm
/// to ~1 ulp).  The test suite pins the AVX2 stages bit for bit against
/// the scalar stages on the same exponentials, and both levels against
/// the per-point form at 1e-12 relative, including the theta*h -> 0
/// series guard, denormal and huge-|s| edge cases.

#include <complex>
#include <cstddef>

#include "rlc/base/simd.hpp"
#include "rlc/tline/line.hpp"
#include "rlc/tline/transfer.hpp"

namespace rlc::tline {

namespace detail {

/// The s-independent invariants of the dc-safe denominator, hoisted once
/// per (line, h, driver/load).
struct TransferInvariants {
  double rs_cp_cl = 0.0;   ///< Rs (Cp + Cl)
  double rs_ch = 0.0;      ///< Rs c h
  double cl = 0.0;         ///< Cl
  double rs_cp_cl2 = 0.0;  ///< Rs Cp Cl
  double ch = 0.0;         ///< c h
  double lh = 0.0;         ///< l h
  double rh = 0.0;         ///< r h
};

}  // namespace detail

class BatchTransferEvaluator {
 public:
  /// Validates the line (LineParams::validate) and hoists the invariants.
  /// `level` selects the kernel (default: runtime-detected, RLC_SIMD-aware).
  BatchTransferEvaluator(const LineParams& line, double h, const DriverLoad& dl,
                         simd::Level level = simd::active_level());

  /// Flushes the evaluation tally into the global metrics registry
  /// ("tline.transfer.evals" / "tline.transfer.batch_passes").
  ~BatchTransferEvaluator();

  /// Exact H(s) (dc-safe form) at n SoA nodes: h_re/h_im[i] = H(s_i).
  void transfer(const double* s_re, const double* s_im, double* h_re,
                double* h_im, std::size_t n) const;

  /// Step-input transform H(s)/s at n SoA nodes (what Talbot inverts).
  void step(const double* s_re, const double* s_im, double* f_re,
            double* f_im, std::size_t n) const;

  /// Convenience single-point probes (tests / spot checks).
  std::complex<double> transfer(std::complex<double> s) const;
  std::complex<double> step(std::complex<double> s) const;

  simd::Level level() const noexcept { return level_; }

  /// Total nodes evaluated so far.
  std::size_t evaluations() const noexcept { return evaluations_; }
  /// Batch passes (transfer/step calls) so far.
  std::size_t passes() const noexcept { return passes_; }

 private:
  void eval(const double* s_re, const double* s_im, double* out_re,
            double* out_im, std::size_t n, bool divide_by_s) const;

  detail::TransferInvariants inv_;

  simd::Level level_;
  mutable std::size_t evaluations_ = 0;
  mutable std::size_t passes_ = 0;
};

}  // namespace rlc::tline
