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
/// Accuracy: the scalar level matches exact_transfer_dc_safe to ~1e-12
/// relative (same denominator, one exp instead of cosh + sinh, different
/// division/sqrt sequencing); the AVX2 level matches the scalar level to
/// ~1 ulp.  The test suite pins both agreements at 1e-12 relative,
/// including the theta*h -> 0 series guard, denormal and huge-|s| edge
/// cases.

#include <complex>
#include <cstddef>

#include "rlc/base/simd.hpp"
#include "rlc/tline/line.hpp"
#include "rlc/tline/transfer.hpp"

namespace rlc::tline {

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

  // Hoisted invariants of the dc-safe denominator.
  double rs_cp_cl_ = 0.0;   ///< Rs (Cp + Cl)
  double rs_ch_ = 0.0;      ///< Rs c h
  double cl_ = 0.0;         ///< Cl
  double rs_cp_cl2_ = 0.0;  ///< Rs Cp Cl
  double ch_ = 0.0;         ///< c h
  double lh_ = 0.0;         ///< l h
  double rh_ = 0.0;         ///< r h

  simd::Level level_;
  mutable std::size_t evaluations_ = 0;
  mutable std::size_t passes_ = 0;
};

}  // namespace rlc::tline
