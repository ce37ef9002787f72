#include "rlc/tline/batch_evaluator.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "rlc/base/simd.hpp"
#include "rlc/core/technology.hpp"
#include "rlc/tline/coupled_line.hpp"
#include "rlc/tline/transfer.hpp"
#include "support/batch_evaluator_reference.hpp"

namespace rlc::tline {
namespace {

using cplx = std::complex<double>;

struct Case {
  LineParams line;
  double h;
  DriverLoad dl;
};

Case paper_case(double l) {
  const auto tech = rlc::core::Technology::nm250();
  Case c;
  c.line = tech.line(l);
  c.h = 0.0144;
  c.dl = tech.rep.scaled(578.0);
  return c;
}

/// Max relative disagreement between the batch output and a per-point
/// reference, with the overflow-saturation contract folded in: lanes where
/// the reference collapsed to ~0 (|ref| below tiny) must also be ~0 in the
/// batch output, rather than contributing a meaningless relative error.
double max_rel_err(const std::vector<cplx>& ref, const std::vector<double>& hr,
                   const std::vector<double>& hi) {
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double rm = std::abs(ref[i]);
    const double gm = std::hypot(hr[i], hi[i]);
    EXPECT_TRUE(std::isfinite(gm)) << "batch lane " << i << " not finite";
    if (!std::isfinite(rm) || rm < 1e-280) {
      EXPECT_LT(gm, 1e-280) << "lane " << i << ": ref saturated, batch not";
      continue;
    }
    worst = std::max(worst, std::abs(cplx{hr[i], hi[i]} - ref[i]) / rm);
  }
  return worst;
}

TEST(BatchTransferEvaluator, MatchesPerPointEvaluatorOnContourNodes) {
  // Talbot-contour-shaped probe sets (the real workload): nodes along the
  // cotangent contour for a spread of anchor times, all three inductance
  // regimes.  Scalar batch vs the per-point exact_transfer_dc_safe must
  // agree to 1e-12.
  std::mt19937_64 rng(7);
  for (double l : {0.0, 1e-6, 5e-6}) {
    const Case c = paper_case(l);
    const BatchTransferEvaluator batch(c.line, c.h, c.dl,
                                       simd::Level::kScalar);
    std::vector<double> sr, si;
    std::uniform_real_distribution<double> scale(8.0, 13.0);
    for (int contour = 0; contour < 12; ++contour) {
      const double r = std::pow(10.0, scale(rng));  // contour radius ~ 1/t
      for (int k = 0; k < 48; ++k) {
        const double theta = (k + 0.5) * M_PI / 48.0 - M_PI / 2.0;
        // r * theta * cot(theta) + i * r * theta, the fixed-Talbot node.
        const double tc = theta == 0.0 ? 1.0 : theta / std::tan(theta);
        sr.push_back(r * tc);
        si.push_back(r * theta);
      }
    }
    std::vector<cplx> ref(sr.size());
    for (std::size_t i = 0; i < sr.size(); ++i) {
      ref[i] = exact_transfer_dc_safe(c.line, c.h, c.dl, cplx{sr[i], si[i]});
    }
    std::vector<double> hr(sr.size()), hi(sr.size());
    batch.transfer(sr.data(), si.data(), hr.data(), hi.data(), sr.size());
    EXPECT_LT(max_rel_err(ref, hr, hi), 1e-12) << "l = " << l;
    EXPECT_EQ(batch.evaluations(), sr.size());
    EXPECT_EQ(batch.passes(), 1u);
  }
}

TEST(BatchTransferEvaluator, SimdLevelAgreesWithScalarLevel) {
  if (simd::detected_level() != simd::Level::kAvx2) {
    GTEST_SKIP() << "host has no AVX2; nothing to cross-check";
  }
  // Property-based sweep: random lines, random drivers, random nodes.
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const auto tech = rlc::core::Technology::nm250();
  for (int trial = 0; trial < 20; ++trial) {
    Case c = paper_case(5e-6 * u(rng));
    c.h *= 0.25 + 2.0 * u(rng);
    c.dl = tech.rep.scaled(100.0 + 900.0 * u(rng));
    const BatchTransferEvaluator scalar(c.line, c.h, c.dl,
                                        simd::Level::kScalar);
    const BatchTransferEvaluator vector(c.line, c.h, c.dl,
                                        simd::Level::kAvx2);
    ASSERT_EQ(vector.level(), simd::Level::kAvx2);
    std::vector<double> sr(301), si(301);
    for (std::size_t i = 0; i < sr.size(); ++i) {
      const double mag = std::pow(10.0, 6.0 + 7.0 * u(rng));
      const double ang = M_PI * (u(rng) - 0.5);
      sr[i] = mag * std::cos(ang);
      si[i] = mag * std::sin(ang);
    }
    std::vector<double> ar(sr.size()), ai(sr.size());
    std::vector<double> br(sr.size()), bi(sr.size());
    scalar.step(sr.data(), si.data(), ar.data(), ai.data(), sr.size());
    vector.step(sr.data(), si.data(), br.data(), bi.data(), sr.size());
    for (std::size_t i = 0; i < sr.size(); ++i) {
      const double rm = std::hypot(ar[i], ai[i]);
      if (rm < 1e-280) {
        EXPECT_LT(std::hypot(br[i], bi[i]), 1e-280) << "trial " << trial;
        continue;
      }
      EXPECT_NEAR(br[i], ar[i], 1e-12 * rm) << "trial " << trial;
      EXPECT_NEAR(bi[i], ai[i], 1e-12 * rm) << "trial " << trial;
    }
  }
}

TEST(BatchTransferEvaluator, SeriesGuardIsSeamlessThroughThetaZero) {
  // |theta h| -> 0: the cosh/sinhc series guard must hand over to the
  // exp-based form with no jump, including exactly at the near-DC node.
  const Case c = paper_case(1e-6);
  const BatchTransferEvaluator batch(c.line, c.h, c.dl, simd::Level::kScalar);
  std::vector<double> sr, si;
  // Sweep |s| across the guard threshold (|theta h| = 1e-4 maps to some
  // |s| for this line; bracket it by orders of magnitude on both sides).
  for (int e = -6; e <= 10; ++e) {
    const double mag = std::pow(10.0, e);
    sr.push_back(mag);
    si.push_back(0.0);
    sr.push_back(0.0);
    si.push_back(mag);
    sr.push_back(mag * 0.6);
    si.push_back(-mag * 0.8);
  }
  std::vector<cplx> ref(sr.size());
  for (std::size_t i = 0; i < sr.size(); ++i) {
    ref[i] = exact_transfer_dc_safe(c.line, c.h, c.dl, cplx{sr[i], si[i]});
  }
  std::vector<double> hr(sr.size()), hi(sr.size());
  batch.transfer(sr.data(), si.data(), hr.data(), hi.data(), sr.size());
  EXPECT_LT(max_rel_err(ref, hr, hi), 1e-12);
}

TEST(BatchTransferEvaluator, DenormalAndHugeNodesStayFinite) {
  // Denormal |s| must behave like DC (H -> 1); huge |s| lanes where
  // exp(theta h) or the denominator overflows must saturate to exactly 0
  // (the per-point path reaches ~0 through IEEE inf arithmetic).
  const Case c = paper_case(1e-6);
  for (simd::Level level :
       {simd::Level::kScalar, simd::detected_level()}) {
    const BatchTransferEvaluator batch(c.line, c.h, c.dl, level);
    const std::vector<double> sr = {
        std::numeric_limits<double>::denorm_min(), 1e-300, 0.0,
        -3.4e13, 1e15, 1e18};
    const std::vector<double> si = {0.0, 1e-300, 4.9e-324,
                                    2.2e12, -1e15, 1e18};
    std::vector<double> hr(sr.size()), hi(sr.size());
    batch.transfer(sr.data(), si.data(), hr.data(), hi.data(), sr.size());
    for (std::size_t i = 0; i < sr.size(); ++i) {
      EXPECT_TRUE(std::isfinite(hr[i]) && std::isfinite(hi[i]))
          << "lane " << i << " at level " << simd::level_name(level);
      const cplx ref = exact_transfer_dc_safe(c.line, c.h, c.dl,
                                              cplx{sr[i], si[i]});
      const double rm = std::abs(ref);
      const double gm = std::hypot(hr[i], hi[i]);
      if (!std::isfinite(rm) || rm < 1e-280) {
        EXPECT_LT(gm, 1e-280) << "lane " << i;
      } else {
        EXPECT_NEAR(gm, rm, 1e-12 * rm) << "lane " << i;
      }
    }
  }
}

TEST(BatchTransferEvaluator, SinglePointOverloadsMatchSpans) {
  const Case c = paper_case(2e-6);
  const BatchTransferEvaluator batch(c.line, c.h, c.dl);
  const cplx s{1e8, 5e9};
  const double sr = s.real(), si = s.imag();
  double hr = 0.0, hi = 0.0;
  batch.transfer(&sr, &si, &hr, &hi, 1);
  EXPECT_EQ(batch.transfer(s), (cplx{hr, hi}));
  double fr = 0.0, fi = 0.0;
  batch.step(&sr, &si, &fr, &fi, 1);
  EXPECT_EQ(batch.step(s), (cplx{fr, fi}));
  // step = transfer / s, to roundoff of the two division orders.
  const cplx q = cplx{hr, hi} / s;
  EXPECT_NEAR(std::abs(cplx{fr, fi} - q), 0.0, 1e-14 * std::abs(q));
}

TEST(BatchTransferEvaluator, ValidatesTheLine) {
  Case c = paper_case(1e-6);
  c.line.r = -1.0;
  EXPECT_THROW(BatchTransferEvaluator(c.line, c.h, c.dl), std::domain_error);
}

TEST(BatchTransferEvaluator, BlockBoundariesAreInvisible) {
  // Spans longer than the internal block size must give identical results
  // to evaluating the same nodes in separate short calls.  Pinned at the
  // scalar level: the vector level's sub-width tail lanes legitimately go
  // through a different (libm) code path, so bit-identity only holds when
  // every lane uses the same kernel.
  const Case c = paper_case(1e-6);
  const BatchTransferEvaluator batch(c.line, c.h, c.dl, simd::Level::kScalar);
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> u(8.0, 12.0);
  const std::size_t n = 3 * 128 + 17;  // crosses several kBlock boundaries
  std::vector<double> sr(n), si(n);
  for (std::size_t i = 0; i < n; ++i) {
    sr[i] = std::pow(10.0, u(rng));
    si[i] = std::pow(10.0, u(rng));
  }
  std::vector<double> ar(n), ai(n), br(n), bi(n);
  batch.transfer(sr.data(), si.data(), ar.data(), ai.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.transfer(&sr[i], &si[i], &br[i], &bi[i], 1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(ar[i], br[i]) << i;
    EXPECT_EQ(ai[i], bi[i]) << i;
  }
}

/// Levels the host can run: the scalar stages always, the AVX2 ones when
/// cpuid reports them.
std::vector<simd::Level> runnable_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  if (simd::detected_level() == simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  return levels;
}

/// Both outputs (transfer and step) of the evaluator at `level` against
/// the scalar-stage reference with the same level's cexp, bit for bit (two
/// NaNs count as equal).  Returns the number of differing values.
int bit_mismatches(const Case& c, simd::Level level,
                   const std::vector<double>& sr,
                   const std::vector<double>& si) {
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
           (std::isnan(a) && std::isnan(b));
  };
  const BatchTransferEvaluator batch(c.line, c.h, c.dl, level);
  const std::size_t n = sr.size();
  int bad = 0;
  for (const bool divide_by_s : {false, true}) {
    std::vector<double> gr(n), gi(n), wr(n), wi(n);
    if (divide_by_s) {
      batch.step(sr.data(), si.data(), gr.data(), gi.data(), n);
    } else {
      batch.transfer(sr.data(), si.data(), gr.data(), gi.data(), n);
    }
    reference_batch_eval(c.line, c.h, c.dl, level, sr.data(), si.data(),
                         wr.data(), wi.data(), n, divide_by_s);
    for (std::size_t i = 0; i < n; ++i) {
      if (same(gr[i], wr[i]) && same(gi[i], wi[i])) continue;
      if (++bad <= 3) {
        ADD_FAILURE() << simd::level_name(level) << " node " << i << " of "
                      << n << " s = " << sr[i] << " + " << si[i] << "i"
                      << (divide_by_s ? " (step)" : " (transfer)") << ": "
                      << gr[i] << " + " << gi[i] << "i vs " << wr[i] << " + "
                      << wi[i] << "i";
      }
    }
  }
  return bad;
}

TEST(BatchTransferEvaluator, StagesMatchTheScalarReferenceOnNoiseScanNodes) {
  // The exact coupled-noise check's Euler scan: 400 geometric times over
  // [0.02, 8] tau, 47 nodes (decay/2 + i pi j)/t each, on every mode of the
  // 2- and 3-conductor buses at both nodes over l = 0-5 nH/mm.
  const double kDecay = 18.4;
  const int kNodes = 47;
  int modes = 0;
  for (const auto& tech : {rlc::core::Technology::nm100(),
                           rlc::core::Technology::nm250()}) {
    for (const double l : {0.0, 1.5e-6, 5e-6}) {
      for (const std::size_t conductors : {2u, 3u}) {
        const CoupledLine bus =
            symmetric_bus(tech.line(l), 2.5e-11, 0.2, conductors);
        for (const LineParams& mode : modal_decomposition(bus).modes) {
          Case c{mode, 0.012, tech.rep.scaled(500.0)};
          const double tau = 2e-10;
          const double lo = 0.02 * tau, hi = 8.0 * tau;
          std::vector<double> sr, si;
          for (int i = 0; i < 400; ++i) {
            const double t = lo * std::pow(hi / lo, i / 399.0);
            for (int j = 0; j < kNodes; ++j) {
              sr.push_back(0.5 * kDecay / t);
              si.push_back(M_PI / t * j);
            }
          }
          for (const simd::Level level : runnable_levels()) {
            EXPECT_EQ(bit_mismatches(c, level, sr, si), 0)
                << tech.name << " l " << l << " conductors " << conductors;
          }
          ++modes;
        }
      }
    }
  }
  EXPECT_EQ(modes, 30);
}

TEST(BatchTransferEvaluator, StagesMatchTheScalarReferenceOnEdgeNodes) {
  std::vector<double> sr, si;
  // Talbot contour nodes over a spread of anchor times.
  std::mt19937_64 rng(29);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int contour = 0; contour < 8; ++contour) {
    const double r = std::pow(10.0, 8.0 + 5.0 * u(rng));
    for (int k = 0; k < 48; ++k) {
      const double theta = (k + 0.5) * M_PI / 48.0 - M_PI / 2.0;
      sr.push_back(r * theta / std::tan(theta));
      si.push_back(r * theta);
    }
  }
  // theta h -> 0 through the series guard, on and off the axes.
  for (int e = -60; e <= 100; ++e) {
    const double mag = std::pow(10.0, e / 10.0);
    for (const double ang : {0.0, 0.5, 1.2, M_PI / 2, 2.5, -0.9}) {
      sr.push_back(mag * std::cos(ang));
      si.push_back(mag * std::sin(ang));
    }
  }
  // Denormal, zero and huge |s|; exp(theta h) and the denominator
  // overflowing; a non-finite node.
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double edge_re[] = {tiny, 1e-300, 0.0, 0.0, -3.4e13, 1e15, 1e18,
                            1e300, -1e300, 5e16, 1e30, 3e12};
  const double edge_im[] = {0.0, 1e-300, tiny, 0.0, 2.2e12, -1e15, 1e18,
                            0.0, 1e300, 5e16, -1e30, HUGE_VAL};
  for (std::size_t i = 0; i < std::size(edge_re); ++i) {
    sr.push_back(edge_re[i]);
    si.push_back(edge_im[i]);
  }
  // Random magnitudes and angles, a group of four mixing guard and
  // exponential nodes at every offset.
  for (int i = 0; i < 600; ++i) {
    const double mag = std::pow(10.0, -2.0 + 19.0 * u(rng));
    const double ang = M_PI * (u(rng) - 0.5);
    sr.push_back(mag * std::cos(ang));
    si.push_back(mag * std::sin(ang));
  }
  for (const double l : {0.0, 1e-6, 5e-6}) {
    const Case c = paper_case(l);
    for (const simd::Level level : runnable_levels()) {
      EXPECT_EQ(bit_mismatches(c, level, sr, si), 0) << "l = " << l;
      // Spans whose length is not a multiple of four, across and inside
      // block boundaries, starting at every offset of a group.
      for (const std::size_t n : {1u, 2u, 3u, 5u, 7u, 126u, 127u, 129u, 131u,
                                  255u, 257u, 389u}) {
        for (const std::size_t first : {0u, 1u, 2u, 3u}) {
          const std::vector<double> a(sr.begin() + first,
                                      sr.begin() + first + n);
          const std::vector<double> b(si.begin() + first,
                                      si.begin() + first + n);
          EXPECT_EQ(bit_mismatches(c, level, a, b), 0)
              << "l = " << l << " n = " << n << " first = " << first;
        }
      }
    }
  }
}

}  // namespace
}  // namespace rlc::tline
