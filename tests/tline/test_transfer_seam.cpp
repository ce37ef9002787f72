// Seam test for the theta*h series-guard threshold shared between the
// scalar exact_transfer_dc_safe path (detail::sinhc, |th| test) and the SoA
// BatchTransferEvaluator (|th^2| test): both must read the ONE constant in
// transfer_detail.hpp, and the two kernels must agree across the switch.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "../../src/tline/src/transfer_detail.hpp"
#include "rlc/tline/batch_evaluator.hpp"
#include "rlc/tline/transfer.hpp"

namespace {

using cplx = std::complex<double>;
using rlc::tline::BatchTransferEvaluator;
using rlc::tline::DriverLoad;
using rlc::tline::LineParams;
namespace detail = rlc::tline::detail;

TEST(SeriesGuardSeam, SquaredSpellingIsExactlyTheSquare) {
  EXPECT_EQ(detail::kSeriesGuardThresholdSq,
            detail::kSeriesGuardThreshold * detail::kSeriesGuardThreshold);
}

TEST(SeriesGuardSeam, ScalarAndBatchAgreeAcrossGuardBoundary) {
  // Line sized so |theta h| sweeps through the guard threshold as |s|
  // varies: theta h ~ sqrt(r c s) h = 1e-6 sqrt(s), so the seam sits at
  // s ~ 1e4.  Scan two decades around it on both axes.
  const LineParams line{1.0e4, 1.0e-9, 1.0e-10};
  const double h = 1.0e-3;
  const DriverLoad dl{120.0, 3.0e-15, 8.0e-15};

  BatchTransferEvaluator batch(line, h, dl, rlc::simd::Level::kScalar);

  std::vector<double> sre, sim;
  for (double mag = 1.0e3; mag <= 1.0e5; mag *= 1.3) {
    sre.push_back(mag);
    sim.push_back(0.25 * mag);
  }
  std::vector<double> hre(sre.size()), him(sre.size());
  batch.transfer(sre.data(), sim.data(), hre.data(), him.data(), sre.size());
  for (std::size_t i = 0; i < sre.size(); ++i) {
    const cplx ref =
        rlc::tline::exact_transfer_dc_safe(line, h, dl, cplx(sre[i], sim[i]));
    const cplx got(hre[i], him[i]);
    EXPECT_LE(std::abs(got - ref), 1e-12 * std::abs(ref))
        << "s = (" << sre[i] << ", " << sim[i] << ")";
  }
}

}  // namespace
