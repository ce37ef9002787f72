/// Determinism regression for the parallel sweep path: the chunked-
/// continuation parallel optimize_rlc_sweep must agree with the serial
/// warm-start reference point-for-point (h, k, tau within 1e-9 relative)
/// across the Figure 4-7 inductance grids at both technology nodes, and
/// must return results in input order for any thread count — including a
/// pool forced to one thread via RLC_NUM_THREADS — and must solve every
/// point exactly once (read from the obs registry delta).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "rlc/core/optimizer.hpp"
#include "rlc/exec/thread_pool.hpp"
#include "rlc/obs/metrics.hpp"

namespace {

using namespace rlc::core;

std::int64_t counter_value(const rlc::obs::MetricsSnapshot& s,
                           const std::string& name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  return 0;
}

/// The grid behind Figures 4-7: 0..5 nH/mm in 26 points.
std::vector<double> figure_grid() {
  std::vector<double> ls;
  for (int i = 0; i <= 25; ++i) ls.push_back(5.0e-6 * i / 25.0);
  return ls;
}

void expect_pointwise_match(const std::vector<OptimResult>& ref,
                            const std::vector<OptimResult>& got,
                            double rel_tol, const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i].converged, got[i].converged) << what << " point " << i;
    if (!ref[i].converged) continue;
    EXPECT_NEAR(got[i].h, ref[i].h, rel_tol * std::abs(ref[i].h))
        << what << " point " << i;
    EXPECT_NEAR(got[i].k, ref[i].k, rel_tol * std::abs(ref[i].k))
        << what << " point " << i;
    EXPECT_NEAR(got[i].tau, ref[i].tau, rel_tol * std::abs(ref[i].tau))
        << what << " point " << i;
  }
}

TEST(ParallelSweep, MatchesSerialOnFigureGridsAtBothNodes) {
  const auto ls = figure_grid();
  for (const auto& tech : {Technology::nm250(), Technology::nm100()}) {
    const auto serial = optimize_rlc_sweep(tech, ls);  // reference path
    for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
      rlc::exec::ThreadPool pool(threads);
      SweepOptions sweep;
      sweep.pool = &pool;
      const auto par = optimize_rlc_sweep(tech, ls, sweep);
      expect_pointwise_match(serial, par, 1e-9,
                             tech.name + " x" + std::to_string(threads));
    }
  }
}

TEST(ParallelSweep, ResultsAreInInputOrderForReversedGrid) {
  // Feed the grid backwards: output i must correspond to input i (checked
  // against per-point independent solves), so collection is input-ordered
  // rather than completion-ordered.
  auto ls = figure_grid();
  std::reverse(ls.begin(), ls.end());
  rlc::exec::ThreadPool pool(4);
  SweepOptions sweep;
  sweep.pool = &pool;
  sweep.chunk = 3;
  const auto tech = Technology::nm250();
  const auto par = optimize_rlc_sweep(tech, ls, sweep);
  ASSERT_EQ(par.size(), ls.size());
  for (std::size_t i = 0; i < ls.size(); ++i) {
    ASSERT_TRUE(par[i].converged) << i;
    const auto solo = optimize_rlc(tech, ls[i]);
    ASSERT_TRUE(solo.converged) << i;
    EXPECT_NEAR(par[i].h, solo.h, 1e-6 * solo.h) << i;
    EXPECT_NEAR(par[i].k, solo.k, 1e-6 * solo.k) << i;
  }
}

TEST(ParallelSweep, ParallelPathIsBitIdenticalForAnyThreadCount) {
  // The parallel path must not depend on the pool size AT ALL — including a
  // pool forced to one thread via RLC_NUM_THREADS.  (It is allowed to differ
  // from the parallel=false serial reference at rounding level, because the
  // chunk seeds warm-start differently; what may not vary is the answer for
  // a given chunking as threads change.)
  ::setenv("RLC_NUM_THREADS", "1", 1);
  rlc::exec::ThreadPool pool1;  // sized from the env override
  ::unsetenv("RLC_NUM_THREADS");
  ASSERT_EQ(pool1.size(), 1u);
  const auto ls = figure_grid();
  const auto tech = Technology::nm100();
  SweepOptions sweep;
  sweep.pool = &pool1;
  const auto one = optimize_rlc_sweep(tech, ls, sweep);
  for (const std::size_t threads : {2u, 5u}) {
    rlc::exec::ThreadPool pool(threads);
    sweep.pool = &pool;
    const auto par = optimize_rlc_sweep(tech, ls, sweep);
    ASSERT_EQ(par.size(), one.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(par[i].h, one[i].h) << i;
      EXPECT_EQ(par[i].k, one[i].k) << i;
      EXPECT_EQ(par[i].tau, one[i].tau) << i;
      EXPECT_EQ(par[i].newton_iterations, one[i].newton_iterations) << i;
    }
  }
}

TEST(ParallelSweep, SolvesEveryPointExactlyOnce) {
  const auto ls = figure_grid();
  auto& reg = rlc::obs::Registry::global();
  for (const auto& tech : {Technology::nm250(), Technology::nm100()}) {
    for (const bool parallel : {false, true}) {
      rlc::exec::ThreadPool pool(4);
      SweepOptions sweep;
      sweep.parallel = parallel;
      sweep.pool = &pool;
      const auto before = reg.snapshot();
      const auto rs = optimize_rlc_sweep(tech, ls, sweep);
      const auto delta = reg.snapshot().delta_since(before);
      ASSERT_EQ(rs.size(), ls.size());
      const auto n = static_cast<std::int64_t>(ls.size());
      const auto nm = std::count_if(rs.begin(), rs.end(), [](const auto& r) {
        return r.method == OptimMethod::kNelderMead;
      });
      EXPECT_TRUE(std::all_of(rs.begin(), rs.end(),
                              [](const auto& r) { return r.converged; }))
          << tech.name << " parallel " << parallel;
      // One optimizer call, and one Newton solve of Eqs. (7)-(8), per point.
      EXPECT_EQ(counter_value(delta, "optimizer.calls"), n)
          << tech.name << " parallel " << parallel;
      EXPECT_EQ(counter_value(delta, "newton.2d.solves"), n)
          << tech.name << " parallel " << parallel;
      EXPECT_EQ(counter_value(delta, "optimizer.nm_fallbacks"), nm)
          << tech.name << " parallel " << parallel;
    }
  }
}

TEST(ParallelSweep, ChunkSizeDoesNotChangeResults) {
  const auto ls = figure_grid();
  const auto tech = Technology::nm100();
  const auto serial = optimize_rlc_sweep(tech, ls);
  for (const std::size_t chunk : {1u, 2u, 5u, 26u, 100u}) {
    rlc::exec::ThreadPool pool(3);
    SweepOptions sweep;
    sweep.pool = &pool;
    sweep.chunk = chunk;
    const auto par = optimize_rlc_sweep(tech, ls, sweep);
    expect_pointwise_match(serial, par, 1e-9,
                           "chunk " + std::to_string(chunk));
  }
}

}  // namespace
