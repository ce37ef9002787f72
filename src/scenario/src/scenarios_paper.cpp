/// Paper scenarios: Table 1 and Figures 2, 4-8.  Each body ports the
/// corresponding legacy bench binary's computation — the same grids and
/// solver options — but returns tables/metrics instead of printing.
/// Figures 4-8 run one warm-start l-sweep per technology node (see
/// sweep_nodes); fig4/fig7 are pinned bit-for-bit by tests/scenario.

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "rlc/core/baselines.hpp"
#include "rlc/core/delay.hpp"
#include "rlc/core/elmore.hpp"
#include "rlc/core/lcrit.hpp"
#include "rlc/core/optimizer.hpp"
#include "rlc/core/two_pole.hpp"
#include "rlc/extract/bem2d.hpp"
#include "rlc/extract/resistance.hpp"
#include "rlc/laplace/talbot.hpp"
#include "rlc/math/constants.hpp"
#include "rlc/scenario/registry.hpp"

namespace rlc::scenario {

namespace {

using namespace rlc::core;

/// One l-sweep per technology node.  Each sweep is a serial warm-start
/// continuation, but the nodes are independent of each other, so they fan
/// out over the scenario's pool (bit-identical for any pool size).
std::vector<std::vector<OptimResult>> sweep_nodes(
    const std::vector<Technology>& techs, const std::vector<double>& ls,
    const ScenarioSpec& spec, ScenarioContext& ctx) {
  const OptimOptions opts = spec.optim_options();
  return rlc::exec::parallel_map(
      ctx.pool_ref(), techs,
      [&](const Technology& t) { return optimize_rlc_sweep(t, ls, opts); });
}

ScenarioResult table1(const ScenarioSpec&, ScenarioContext&) {
  ScenarioResult res;

  Table params("Technology parameters",
               {"tech", "r (Ohm/mm)", "c (pF/m)", "eps_r", "h_optRC (mm)",
                "k_optRC", "tau_optRC (ps)", "r_s (kOhm)", "c_0 (fF)",
                "c_p (fF)"});
  for (const auto& tech : {Technology::nm250(), Technology::nm100()}) {
    const auto o = rc_optimum(tech);
    params.row({tech.name, tech.r * 1e-3, tech.c * 1e12, tech.eps_r, o.h * 1e3,
                o.k, o.tau * 1e12, tech.rep.rs * 1e-3, tech.rep.c0 * 1e15,
                tech.rep.cp * 1e15});
    res.metric("h_optRC_" + tech.name + "_mm", o.h * 1e3);
    res.metric("tau_optRC_" + tech.name + "_ps", o.tau * 1e12);
  }
  res.tables.push_back(std::move(params));
  res.note(
      "(paper: 250nm -> 14.4 mm, 578, 305.17 ps; 100nm -> 11.1 mm, 528, "
      "105.94 ps)");

  Table inverse("Inverse calibration: (r_s, c_0, c_p) from the measured optimum",
                {"tech", "r_s (kOhm)", "c_0 (fF)", "c_p (fF)"});
  for (const auto& tech : {Technology::nm250(), Technology::nm100()}) {
    const auto o = rc_optimum(tech);
    const auto rep =
        infer_repeater_from_rc_optimum(tech.r, tech.c, o.h, o.k, o.tau);
    inverse.row({tech.name, rep.rs * 1e-3, rep.c0 * 1e15, rep.cp * 1e15});
  }
  res.tables.push_back(std::move(inverse));

  Table extract("Extraction cross-check (resistance formula / 2D BEM substrate)",
                {"tech", "r bulk-Cu (Ohm/mm)", "r Table-1 (Ohm/mm)",
                 "barrier overhead", "c 2D-BEM (pF/m)", "c Table-1 (pF/m)",
                 "c ratio"});
  for (const auto& tech : {Technology::nm250(), Technology::nm100()}) {
    const double r_bulk = rlc::extract::resistance_per_length(
        rlc::math::kRhoCopper, tech.width, tech.thickness);
    rlc::extract::Bem2dOptions opts;
    opts.panels_per_side = 16;
    opts.eps_r = tech.eps_r;
    const auto bus = rlc::extract::parallel_bus(3, tech.width, tech.thickness,
                                                tech.pitch, tech.t_ins);
    const double c_bem = rlc::extract::total_capacitance(bus, 1, opts);
    extract.row({tech.name, r_bulk * 1e-3, tech.r * 1e-3, tech.r / r_bulk,
                 c_bem * 1e12, tech.c * 1e12, tech.c / c_bem});
  }
  res.tables.push_back(std::move(extract));
  res.note(
      "The 2D substrate-only BEM underestimates the paper's 3D multilayer "
      "extraction, as expected; the optimization scenarios use Table 1's c.");
  return res;
}

ScenarioResult fig2(const ScenarioSpec& spec, ScenarioContext&) {
  ScenarioResult res;

  const double b1 = 2e-10;
  const double b2_crit = 0.25 * b1 * b1;
  struct Curve {
    const char* name;
    PadeCoeffs pc;
  };
  const Curve curves[] = {
      {"overdamped (b2 = 0.25 b2crit)", {b1, 0.25 * b2_crit}},
      {"critically damped", {b1, b2_crit}},
      {"underdamped (b2 = 6 b2crit)", {b1, 6.0 * b2_crit}},
  };

  Table wave("Normalized step response in the three damping regimes",
             {"t/b1", "overdamped", "critically damped", "underdamped"});
  const int samples = spec.quick ? 12 : 30;
  for (int i = 0; i <= samples; ++i) {
    const double t = b1 * i * (30.0 / samples) / 4.0;
    wave.row({t / b1, TwoPole(curves[0].pc).step_response(t),
              TwoPole(curves[1].pc).step_response(t),
              TwoPole(curves[2].pc).step_response(t)});
  }
  res.tables.push_back(std::move(wave));

  Table regimes("Regime metrics (closed form)",
                {"regime", "zeta", "overshoot", "undershoot"});
  for (const auto& c : curves) {
    const TwoPole sys(c.pc);
    regimes.row({c.name, sys.damping_ratio(), sys.overshoot(),
                 sys.undershoot()});
  }
  res.tables.push_back(std::move(regimes));

  Table check("Cross-check vs numerical inverse Laplace of 1/(s(1+s b1+s^2 b2))",
              {"regime", "max |closed-form - Talbot|"});
  double worst = 0.0;
  for (const auto& c : curves) {
    double max_err = 0.0;
    for (int i = 1; i <= 24; ++i) {
      const double t = b1 * i / 3.0;
      const auto F = [&](std::complex<double> s) {
        return 1.0 / (s * (1.0 + s * c.pc.b1 + s * s * c.pc.b2));
      };
      max_err = std::max(
          max_err, std::abs(rlc::laplace::talbot_invert(F, t, spec.talbot_points) -
                            TwoPole(c.pc).step_response(t)));
    }
    check.row({c.name, max_err});
    worst = std::max(worst, max_err);
  }
  res.tables.push_back(std::move(check));
  res.metric("max_talbot_err", worst);
  return res;
}

ScenarioResult fig4(const ScenarioSpec& spec, ScenarioContext& ctx) {
  ScenarioResult res;
  const auto ls = spec.sweep.values();
  const Technology t250 = Technology::nm250();
  const Technology t100 = Technology::nm100();
  const auto sweeps = sweep_nodes({t250, t100}, ls, spec, ctx);
  const auto& r250 = sweeps[0];
  const auto& r100 = sweeps[1];

  Table t("l_crit(h_optRLC, k_optRLC) vs line inductance l",
          {"l (nH/mm)", "lcrit 250nm (nH/mm)", "lcrit 100nm (nH/mm)"});
  for (std::size_t i = 0; i < ls.size(); ++i) {
    if (!r250[i].converged || !r100[i].converged) continue;
    const double lc250 = critical_inductance(t250, r250[i].h, r250[i].k);
    const double lc100 = critical_inductance(t100, r100[i].h, r100[i].k);
    t.row({to_nH_per_mm(ls[i]), to_nH_per_mm(lc250), to_nH_per_mm(lc100)});
  }
  res.tables.push_back(std::move(t));
  res.note(
      "Expected shape: both curves increase with l; 100nm < 250nm everywhere; "
      "l and l_crit same order of magnitude for practical l (so the "
      "Kahng-Muddu critically-damped delay approximation is not usable).");
  return res;
}

ScenarioResult fig5(const ScenarioSpec& spec, ScenarioContext& ctx) {
  ScenarioResult res;
  const auto ls = spec.sweep.values();
  const auto t250 = Technology::nm250();
  const auto t100 = Technology::nm100();
  const auto sweeps = sweep_nodes({t250, t100}, ls, spec, ctx);
  const auto& r250 = sweeps[0];
  const auto& r100 = sweeps[1];
  const double h250 = rc_optimum(t250).h;
  const double h100 = rc_optimum(t100).h;

  Table t("h_optRLC / h_optRC vs line inductance l",
          {"l (nH/mm)", "250nm", "100nm"});
  for (std::size_t i = 0; i < ls.size(); ++i) {
    t.row({to_nH_per_mm(ls[i]), r250[i].converged ? r250[i].h / h250 : -1.0,
           r100[i].converged ? r100[i].h / h100 : -1.0});
  }
  res.tables.push_back(std::move(t));
  res.note(
      "Expected shape: < 1 at l = 0 (an effect curve-fitted formulas miss), "
      "monotonically increasing with l; the 100nm curve rises faster.");
  return res;
}

ScenarioResult fig6(const ScenarioSpec& spec, ScenarioContext& ctx) {
  ScenarioResult res;
  const auto ls = spec.sweep.values();
  const auto t250 = Technology::nm250();
  const auto t100 = Technology::nm100();
  const auto sweeps = sweep_nodes({t250, t100}, ls, spec, ctx);
  const auto& r250 = sweeps[0];
  const auto& r100 = sweeps[1];
  const double k250 = rc_optimum(t250).k;
  const double k100 = rc_optimum(t100).k;

  Table t("k_optRLC / k_optRC vs line inductance l",
          {"l (nH/mm)", "250nm", "100nm", "Rdrv/Z0_lossless 250nm",
           "Rdrv/Z0_lossless 100nm"});
  for (std::size_t i = 0; i < ls.size(); ++i) {
    double z250 = -1.0, z100 = -1.0;
    if (ls[i] > 0.0) {
      z250 = (t250.rep.rs / r250[i].k) / t250.line(ls[i]).z0_lossless();
      z100 = (t100.rep.rs / r100[i].k) / t100.line(ls[i]).z0_lossless();
    }
    t.row({to_nH_per_mm(ls[i]), r250[i].converged ? r250[i].k / k250 : -1.0,
           r100[i].converged ? r100[i].k / k100 : -1.0, z250, z100});
  }
  res.tables.push_back(std::move(t));
  res.note(
      "Expected shape: monotone decrease, flattening with l; the driver "
      "impedance ratio trends toward impedance matching (slowly, from "
      "below).");
  return res;
}

ScenarioResult fig7(const ScenarioSpec& spec, ScenarioContext& ctx) {
  ScenarioResult res;
  const auto ls = spec.sweep.values();
  const std::vector<Technology> techs{
      Technology::nm250(), Technology::nm100(),
      Technology::nm100_with_250nm_dielectric()};
  const auto sweeps = sweep_nodes(techs, ls, spec, ctx);

  Table t("(tau/h)_RLC-opt / (tau/h)_opt-at-l=0 vs line inductance l",
          {"l (nH/mm)", "250nm", "100nm", "100nm(c=250nm)"});
  for (std::size_t i = 0; i < ls.size(); ++i) {
    std::vector<Value> row{to_nH_per_mm(ls[i])};
    for (const auto& sw : sweeps) {
      row.push_back((sw[i].converged && sw[0].converged)
                        ? sw[i].delay_per_length / sw[0].delay_per_length
                        : -1.0);
    }
    t.row(std::move(row));
  }
  res.tables.push_back(std::move(t));
  for (std::size_t j = 0; j < 3; ++j) {
    res.metric("ratio_at_lmax_" + techs[j].name,
               sweeps[j].back().delay_per_length / sweeps[j][0].delay_per_length);
  }
  res.note(
      "(paper: ~2x at 250nm, ~3.5x at 100nm; identical-c control confirms the "
      "increase is entirely due to scaled driver capacitance/resistance). "
      "Note: the control curve overlays the 100nm curve EXACTLY — the Pade "
      "coefficients are invariant under c -> a*c with h -> h/sqrt(a), "
      "k -> k*sqrt(a), so the normalized delay ratio does not depend on c at "
      "all.  This makes the paper's qualitative claim a provable identity.");
  return res;
}

ScenarioResult fig8(const ScenarioSpec& spec, ScenarioContext& ctx) {
  ScenarioResult res;
  const auto ls = spec.sweep.values();
  double worst[2] = {0.0, 0.0};
  const std::vector<Technology> techs{Technology::nm250(), Technology::nm100()};
  const auto sweeps = sweep_nodes(techs, ls, spec, ctx);
  std::vector<std::vector<double>> ratios(2);
  for (int j = 0; j < 2; ++j) {
    const auto rc = rc_optimum(techs[j]);
    const auto& opt = sweeps[j];
    // The fixed-(h, k) delay evaluations are independent: one pool task per
    // grid point.
    ratios[j] = rlc::exec::parallel_map(ctx.pool_ref(), ls, [&](double l) {
      return delay_per_length(techs[j].rep, techs[j].line(l), rc.h, rc.k,
                              spec.threshold);
    });
    for (std::size_t i = 0; i < ls.size(); ++i) {
      ratios[j][i] =
          opt[i].converged ? ratios[j][i] / opt[i].delay_per_length : -1.0;
      worst[j] = std::max(worst[j], ratios[j][i]);
    }
  }

  Table t("tau/h at (h_optRC, k_optRC) divided by optimal RLC tau/h, vs l",
          {"l (nH/mm)", "250nm", "100nm"});
  for (std::size_t i = 0; i < ls.size(); ++i) {
    t.row({to_nH_per_mm(ls[i]), ratios[0][i], ratios[1][i]});
  }
  res.tables.push_back(std::move(t));
  res.metric("worst_penalty_250nm_pct", (worst[0] - 1.0) * 100.0);
  res.metric("worst_penalty_100nm_pct", (worst[1] - 1.0) * 100.0);
  res.note(
      "(paper: ~6% at 250nm, ~12% at 100nm — scaling increases the cost of "
      "not knowing the effective inductance)");
  return res;
}

}  // namespace

void register_paper_scenarios(ScenarioRegistry& r) {
  r.add({"table1", "Interconnect technology parameters (250 nm / 100 nm)",
         "table", {}, table1});
  r.add({"fig2",
         "Step response of a second-order system (three damping regimes)",
         "figure", {}, fig2});
  r.add({"fig4", "l_crit(h_optRLC, k_optRLC) vs line inductance l", "figure",
         {}, fig4});
  r.add({"fig5", "h_optRLC / h_optRC vs line inductance l", "figure", {},
         fig5});
  r.add({"fig6", "k_optRLC / k_optRC vs line inductance l", "figure", {},
         fig6});
  r.add({"fig7",
         "(tau/h)_RLC-opt / (tau/h)_opt-at-l=0 vs line inductance l",
         "figure", {}, fig7});
  r.add({"fig8",
         "tau/h at (h_optRC, k_optRC) divided by optimal RLC tau/h, vs l",
         "figure", {}, fig8});
}

}  // namespace rlc::scenario
