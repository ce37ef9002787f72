#pragma once

/// \file batch_evaluator_reference.hpp
/// Test-support reference for BatchTransferEvaluator (no library code
/// calls it): the batch Eq. (1) evaluation with the scalar stages 1 and 3
/// only, in blocks of 128 nodes around one simd::cexp_pd call at `level`.
/// The evaluator at the same level is pinned to it bit for bit.

#include <cstddef>

#include "rlc/base/simd.hpp"
#include "rlc/tline/line.hpp"
#include "rlc/tline/transfer.hpp"

namespace rlc::tline {

/// H(s) (or H(s)/s with divide_by_s) at n SoA nodes.
void reference_batch_eval(const LineParams& line, double h,
                          const DriverLoad& dl, simd::Level level,
                          const double* s_re, const double* s_im,
                          double* out_re, double* out_im, std::size_t n,
                          bool divide_by_s);

}  // namespace rlc::tline
