/// Performance scenarios, backing the paper's efficiency claims and the
/// repo's own perf trajectory:
///   * perf_solvers — Eq. (3) delay solve ("less than four iterations in
///     all cases"), the (h, k) optimization ("less than six iterations"),
///     the Nelder-Mead fallback and the supporting kernels (sparse LU,
///     transient steps);
///   * perf_exact — the legacy-vs-engine exact-delay head-to-head whose
///     metrics (speedup, accuracy) future PRs regress-check.
///
/// Timing is medians of steady_clock reps (the google-benchmark dependency
/// is gone); a volatile sink keeps the measured calls alive.  For clean
/// numbers run these scenarios alone (`rlc_run perf_solvers`) — under
/// `--all` they share the pool with concurrent scenarios.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <iterator>
#include <vector>

#include "rlc/base/simd.hpp"
#include "rlc/core/delay.hpp"
#include "rlc/core/elmore.hpp"
#include "rlc/core/exact_delay.hpp"
#include "rlc/core/optimizer.hpp"
#include "rlc/linalg/sparse_lu.hpp"
#include "rlc/math/constants.hpp"
#include "rlc/ringosc/ladder.hpp"
#include "rlc/scenario/registry.hpp"
#include "rlc/spice/transient.hpp"
#include "rlc/tline/batch_evaluator.hpp"
#include "rlc/tline/transfer.hpp"

namespace rlc::scenario {

namespace {

using namespace rlc::core;

volatile double g_sink = 0.0;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median wall seconds of `reps` runs of fn().
template <typename F>
double time_s(F&& fn, int reps) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    samples.push_back(std::chrono::duration<double>(t1 - t0).count());
  }
  return median(std::move(samples));
}

// ---------------------------------------------------------------- solvers

ScenarioResult perf_solvers(const ScenarioSpec& spec, ScenarioContext&) {
  ScenarioResult res;
  const int reps = spec.quick ? 3 : 5;
  const auto tech = Technology::nm100();
  const auto rc = rc_optimum(tech);

  // Eq. (3) threshold-delay solve: iterations per solve and cost.
  Table delay_t("Eq. (3) delay solve (paper: < 4 Newton iterations)",
                {"l (nH/mm)", "newton iters/solve", "median time (us)"});
  double delay_iters_max = 0.0;
  const int delay_inner = spec.quick ? 200 : 2000;
  for (double l_nh : {0.0, 2.0, 5.0}) {
    const double l = l_nh * 1e-6;
    const TwoPole sys(pade_coeffs_hk(tech.rep, tech.line(l), rc.h, rc.k));
    long long iters = 0, solves = 0;
    const double s = time_s(
        [&] {
          for (int i = 0; i < delay_inner; ++i) {
            const auto r = threshold_delay(sys);
            g_sink = r.tau;
            iters += r.newton_iterations;
            ++solves;
          }
        },
        reps);
    const double iters_per =
        static_cast<double>(iters) / static_cast<double>(solves);
    delay_iters_max = std::max(delay_iters_max, iters_per);
    delay_t.row({l_nh, iters_per, s / delay_inner * 1e6});
  }
  res.tables.push_back(std::move(delay_t));
  res.metric("delay_newton_iters_max", delay_iters_max);

  // (h, k) optimization, warm-started as in a sweep (the paper's use case).
  Table opt_t("(h, k) optimization, warm-started (paper: < 6 iterations)",
              {"l (nH/mm)", "newton iters/solve", "median time (us)"});
  double opt_iters_max = 0.0;
  const int opt_inner = spec.quick ? 20 : 100;
  for (double l_nh : {0.0, 2.0, 5.0}) {
    const double l = l_nh * 1e-6;
    OptimOptions opts = spec.optim_options();
    const auto warm = optimize_rlc(tech, l > 0 ? l - 0.5e-6 : 0.0,
                                   spec.optim_options());
    opts.h0 = warm.h;
    opts.k0 = warm.k;
    long long iters = 0, solves = 0;
    const double s = time_s(
        [&] {
          for (int i = 0; i < opt_inner; ++i) {
            const auto r = optimize_rlc(tech, l, opts);
            g_sink = r.delay_per_length;
            iters += r.newton_iterations;
            ++solves;
          }
        },
        reps);
    const double iters_per =
        static_cast<double>(iters) / static_cast<double>(solves);
    opt_iters_max = std::max(opt_iters_max, iters_per);
    opt_t.row({l_nh, iters_per, s / opt_inner * 1e6});
  }
  res.tables.push_back(std::move(opt_t));
  res.metric("optimize_newton_iters_max", opt_iters_max);

  // Nelder-Mead fallback: the price of not having analytic sensitivities.
  {
    OptimOptions opts = spec.optim_options();
    opts.max_iterations = 1;  // force the fallback path
    const double s_nm = time_s(
        [&] { g_sink = optimize_rlc(tech, 2e-6, opts).delay_per_length; },
        reps);
    OptimOptions newton = spec.optim_options();
    const double s_newton = time_s(
        [&] { g_sink = optimize_rlc(tech, 2e-6, newton).delay_per_length; },
        reps);
    res.metric("nelder_mead_us", s_nm * 1e6);
    res.metric("newton_us", s_newton * 1e6);
    res.metric("nelder_mead_slowdown", s_nm / s_newton);
  }

  // Supporting kernels: sparse LU on ladder matrices, one segment transient.
  Table kern_t("Supporting kernels",
               {"kernel", "size", "median time (us)"});
  {
    std::vector<int> sizes{100, 400, 1600};
    if (spec.quick) sizes = {100, 400};
    for (int n : sizes) {
      std::vector<rlc::linalg::Triplet> trip;
      for (int i = 0; i < n; ++i) {
        trip.push_back({i, i, 2.1});
        if (i > 0) trip.push_back({i, i - 1, -1.0});
        if (i + 1 < n) trip.push_back({i, i + 1, -1.0});
      }
      const auto m = rlc::linalg::CscMatrix::from_triplets(n, n, trip);
      const std::vector<double> b(static_cast<std::size_t>(n), 1.0);
      const double s_factor = time_s(
          [&] {
            const rlc::linalg::SparseLU lu(m);
            g_sink = lu.solve(b)[0];
          },
          reps);
      kern_t.row({"sparse LU factor+solve (ladder)", n, s_factor * 1e6});
      rlc::linalg::SparseLU lu(m);
      const double s_refactor =
          time_s([&] { g_sink = lu.refactor(m) ? 1.0 : 0.0; }, reps);
      kern_t.row({"sparse LU numeric refactor", n, s_refactor * 1e6});
    }
    for (int nseg : {8, 32}) {
      const double s_tr = time_s(
          [&] {
            const auto dl = tech.rep.scaled(rc.k);
            rlc::spice::Circuit ckt;
            const auto src = ckt.node("s"), drv = ckt.node("d"),
                       end = ckt.node("e");
            ckt.add_vsource("V", src, ckt.ground(),
                            rlc::spice::PulseSpec{0, 1, 0, 1e-14, 1e-14, 1, 0});
            ckt.add_resistor("Rs", src, drv, dl.rs_eff);
            ckt.add_capacitor("Cp", drv, ckt.ground(), dl.cp_eff);
            rlc::ringosc::add_rlc_ladder(ckt, "ln", drv, end, tech.line(2e-6),
                                         rc.h, nseg);
            ckt.add_capacitor("Cl", end, ckt.ground(), dl.cl_eff);
            rlc::spice::TransientOptions o;
            o.tstop = 1e-9;
            o.dt = 2e-12;
            o.probes = {rlc::spice::Probe::node_voltage(end, "v")};
            g_sink = static_cast<double>(run_transient(ckt, o).steps_accepted);
          },
          reps);
      kern_t.row({"RLC segment transient (500 steps)", nseg, s_tr * 1e6});
    }
  }
  res.tables.push_back(std::move(kern_t));
  res.note(
      "Timings are medians over steady_clock reps; run this scenario alone "
      "for clean numbers (under --all it shares the machine with concurrent "
      "scenarios).  The iteration counts are timing-independent.");
  return res;
}

// ------------------------------------------------------------ exact engine

struct Config {
  Technology tech;
  double l = 0.0;
  double h = 0.0, k = 0.0, tau = 0.0;
};

Config config_for(int node_nm, double l) {
  Config c{node_nm == 250 ? Technology::nm250() : Technology::nm100(), l,
           0.0, 0.0, 0.0};
  const auto rc = rc_optimum(c.tech);
  c.h = rc.h;
  c.k = rc.k;
  c.tau = segment_delay(c.tech.rep, c.tech.line(l), rc.h, rc.k).tau;
  return c;
}

ScenarioResult perf_exact(const ScenarioSpec& spec, ScenarioContext&) {
  ScenarioResult res;
  const int reps = spec.quick ? 3 : 9;
  const struct {
    int node;
    double l;
  } configs[] = {{250, 0.0}, {250, 1e-6}, {250, 3e-6},
                 {100, 0.0}, {100, 1e-6}, {100, 3e-6}};

  Table t("Exact threshold delay: legacy per-t bisection vs windowed engine",
          {"tech", "l (nH/mm)", "legacy (ms)", "engine (ms)", "speedup",
           "eval ratio", "rel err"});
  double min_speedup = 1e300, max_rel_err = 0.0, min_eval_ratio = 1e300;
  double geo = 1.0;
  for (const auto& cfg : configs) {
    const auto c = config_for(cfg.node, cfg.l);
    ExactOptions legacy = spec.exact_options();
    legacy.legacy_bisection = true;
    const ExactOptions engine = spec.exact_options();

    ExactStats legacy_stats, engine_stats;
    const double d_legacy =
        exact_threshold_delay(c.tech, c.l, c.h, c.k, c.tau, spec.threshold,
                              legacy, &legacy_stats)
            .value();
    const double d_engine =
        exact_threshold_delay(c.tech, c.l, c.h, c.k, c.tau, spec.threshold,
                              engine, &engine_stats)
            .value();
    const double rel_err = std::abs(d_engine - d_legacy) / d_legacy;

    const double s_legacy = time_s(
        [&] {
          g_sink = exact_threshold_delay(c.tech, c.l, c.h, c.k, c.tau,
                                         spec.threshold, legacy)
                       .value_or(0.0);
        },
        reps);
    const double s_engine = time_s(
        [&] {
          g_sink = exact_threshold_delay(c.tech, c.l, c.h, c.k, c.tau,
                                         spec.threshold, engine)
                       .value_or(0.0);
        },
        reps);
    const double speedup = s_legacy / s_engine;
    const double eval_ratio =
        static_cast<double>(legacy_stats.transfer_evals) /
        static_cast<double>(engine_stats.transfer_evals);

    min_speedup = std::min(min_speedup, speedup);
    min_eval_ratio = std::min(min_eval_ratio, eval_ratio);
    max_rel_err = std::max(max_rel_err, rel_err);
    geo *= speedup;
    t.row({c.tech.name, to_nH_per_mm(cfg.l), s_legacy * 1e3, s_engine * 1e3,
           speedup, eval_ratio, rel_err});
  }
  geo = std::pow(geo, 1.0 / std::size(configs));
  res.tables.push_back(std::move(t));

  // Cold-kernel head-to-head: the hot path of the engine is filling a
  // fresh Talbot contour with transfer samples.  Replay that workload
  // (every node distinct) three ways: the library's per-point form
  // exact_transfer_dc_safe(s) / s, SoA batch at forced-scalar level, SoA
  // batch at the active SIMD level.  Evaluators are constructed inside the
  // timed region — cold means cold.
  Table kt("Cold-contour transfer kernel: per-point vs SoA batch",
           {"tech", "l (nH/mm)", "scalar_per_point (us)", "batch_scalar (us)",
            "batch_simd (us)", "batch speedup", "simd gain"});
  double batch_speedup = 1e300, batch_simd_vs_scalar = 1e300;
  double batch_kernel_rel_err = 0.0;
  for (const auto& cfg : {configs[1], configs[5]}) {
    const auto c = config_for(cfg.node, cfg.l);
    const auto line = c.tech.line(c.l);
    const auto dl = c.tech.rep.scaled(c.k);
    // The cold workload: every node of many fresh contours, anchored across
    // the engine's whole descent range (feet shallow enough that the kernel
    // stays finite — overflowed windows exit early and prove nothing).
    const int M = spec.exact_options().window_points;
    const int n_contours = spec.quick ? 24 : 96;
    std::vector<double> sre, sim;
    sre.reserve(static_cast<std::size_t>(n_contours) * M);
    sim.reserve(sre.capacity());
    for (int j = 0; j < n_contours; ++j) {
      const double t_max =
          c.tau * (0.1 + 7.9 * j / static_cast<double>(n_contours - 1));
      const double r = 2.0 * M / (5.0 * t_max);
      for (int k = 0; k < M; ++k) {
        if (k == 0) {
          sre.push_back(r);
          sim.push_back(0.0);
          continue;
        }
        const double theta = k * rlc::math::kPi / M;
        sre.push_back(r * theta * std::cos(theta) / std::sin(theta));
        sim.push_back(r * theta);
      }
    }
    const std::size_t n = sre.size();
    std::vector<double> fre(n), fim(n);
    const int kreps = spec.quick ? 5 : 15;

    const auto point_step = [&](std::size_t i) {
      const std::complex<double> s{sre[i], sim[i]};
      return rlc::tline::exact_transfer_dc_safe(line, c.h, dl, s) / s;
    };
    const double s_point = time_s(
        [&] {
          double acc = 0.0;
          for (std::size_t i = 0; i < n; ++i) acc += point_step(i).real();
          g_sink = acc;
        },
        kreps);
    const double s_bscalar = time_s(
        [&] {
          const rlc::tline::BatchTransferEvaluator ev(
              line, c.h, dl, rlc::simd::Level::kScalar);
          ev.step(sre.data(), sim.data(), fre.data(), fim.data(), n);
          g_sink = fre[0];
        },
        kreps);
    const double s_bsimd = time_s(
        [&] {
          const rlc::tline::BatchTransferEvaluator ev(line, c.h, dl);
          ev.step(sre.data(), sim.data(), fre.data(), fim.data(), n);
          g_sink = fre[0];
        },
        kreps);

    // Agreement between the per-point values and the batch (active-level)
    // values on the same nodes — fre/fim hold the last batch_simd pass.
    for (std::size_t i = 0; i < n; ++i) {
      const std::complex<double> p = point_step(i);
      const double mag = std::abs(p);
      if (!std::isfinite(mag) || mag == 0.0) continue;
      const double err = std::abs(std::complex<double>(fre[i], fim[i]) - p);
      batch_kernel_rel_err = std::max(batch_kernel_rel_err, err / mag);
    }

    batch_speedup = std::min(batch_speedup, s_point / s_bsimd);
    batch_simd_vs_scalar =
        std::min(batch_simd_vs_scalar, s_bscalar / s_bsimd);
    kt.row({c.tech.name, to_nH_per_mm(cfg.l), s_point * 1e6, s_bscalar * 1e6,
            s_bsimd * 1e6, s_point / s_bsimd, s_bscalar / s_bsimd});
  }
  res.tables.push_back(std::move(kt));
  res.metric("batch_speedup", batch_speedup);
  res.metric("batch_simd_vs_scalar", batch_simd_vs_scalar);
  res.metric("batch_kernel_rel_err", batch_kernel_rel_err);
  res.metric("batch_speedup_target", 2.5);

  res.metric("min_speedup", min_speedup);
  res.metric("geomean_speedup", geo);
  res.metric("min_eval_ratio", min_eval_ratio);
  res.metric("max_rel_err", max_rel_err);
  res.metric("rel_err_budget", 1e-3);
  res.note(
      "Accuracy (max_rel_err vs rel_err_budget) is timing-independent and "
      "CI-checked.  The cold-kernel table isolates the contour-fill hot "
      "path: batch_speedup is enforced (>= batch_speedup_target on full "
      "runs with SIMD active) and batch_kernel_rel_err pins "
      "per-point-vs-batch agreement.");
  return res;
}

}  // namespace

void register_perf_scenarios(ScenarioRegistry& r) {
  r.add({"perf_solvers",
         "Solver efficiency: Newton iteration counts, sweep scaling, kernel "
         "timings",
         "perf", {}, perf_solvers});
  r.add({"perf_exact",
         "Exact-waveform engine vs legacy bisection: speedup and accuracy",
         "perf", {}, perf_exact});
}

}  // namespace rlc::scenario
