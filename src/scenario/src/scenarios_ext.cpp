/// Extension scenarios beyond the paper's figures: coupled-line crosstalk,
/// the segment frequency response at three model levels, the continuous
/// technology-scaling trend, and the skin-effect adequacy check.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "rlc/core/delay.hpp"
#include "rlc/core/elmore.hpp"
#include "rlc/core/exact_delay.hpp"
#include "rlc/core/lcrit.hpp"
#include "rlc/core/optimizer.hpp"
#include "rlc/core/two_pole.hpp"
#include "rlc/laplace/talbot.hpp"
#include "rlc/math/constants.hpp"
#include "rlc/ringosc/coupled_bus.hpp"
#include "rlc/ringosc/ladder.hpp"
#include "rlc/scenario/registry.hpp"
#include "rlc/spice/ac.hpp"
#include "rlc/tline/coupled_line.hpp"
#include "rlc/tline/transfer.hpp"

namespace rlc::scenario {

namespace {

using namespace rlc::core;

ScenarioResult ext_crosstalk(const ScenarioSpec& spec, ScenarioContext& ctx) {
  // The ANALYTICAL coupled path (symmetric_bus -> modal decomposition ->
  // Euler-inverted scalar transfers) produces every delay/noise number;
  // a coupled-ladder MNA transient of the quiet-victim pattern rides along
  // per row as a cross-check column.  The xtalk_* scenarios pin the strict
  // converged-ladder agreement; here the ladder uses the spec's segment
  // count, so the rel-err column mostly measures ladder discretization.
  ScenarioResult res;
  const auto tech = Technology::nm100();
  const double l = 1.0e-6;
  const auto line = tech.line(l);
  const auto rc = rc_optimum(tech);
  const double h = 0.5 * rc.h, k = 0.5 * rc.k;
  const auto dl = tech.rep.scaled(k);

  struct Config {
    double ccf = 0.0;
    double km = 0.0;
  };
  std::vector<Config> configs;
  const std::vector<double> ccfs =
      spec.quick ? std::vector<double>{0.2, 0.4}
                 : std::vector<double>{0.1, 0.2, 0.3, 0.4};
  for (double ccf : ccfs) {
    for (double km : {0.0, 0.3}) configs.push_back({ccf, km});
  }

  struct Row {
    double d_in = 0.0, d_quiet = 0.0, d_anti = 0.0;
    rlc::core::CoupledNoiseResult noise;
    double mna_noise = 0.0, rel_err = 0.0;
    bool ok = false;
  };
  // Each (cc, km) configuration is independent: three analytical threshold
  // solves, one noise query and one MNA transient.
  const auto rows =
      rlc::exec::parallel_map(ctx.pool_ref(), configs, [&](const Config& c) {
        Row row;
        const double cc = c.ccf * line.c;
        const auto bus = rlc::tline::symmetric_bus(line, cc, c.km, 2);
        rlc::tline::LineParams eff = line;
        eff.c += 2.0 * cc;
        const auto d = segment_delay(tech.rep, eff, h, k);
        const double tau = d.converged ? d.tau : rc.tau;

        const CoupledExcitation quiet{{0.0, 0.0}, {1.0, 0.0}};
        const CoupledExcitation inphase{{0.0, 0.0}, {1.0, 1.0}};
        const CoupledExcitation anti{{0.0, 1.0}, {1.0, 0.0}};
        const auto dq =
            exact_coupled_threshold_delay(bus, h, dl, quiet, 0, tau, 0.5);
        const auto di =
            exact_coupled_threshold_delay(bus, h, dl, inphase, 0, tau, 0.5);
        const auto da =
            exact_coupled_threshold_delay(bus, h, dl, anti, 0, tau, 0.5);
        row.noise = exact_coupled_victim_noise(bus, h, dl, quiet, 1, tau);

        const auto mna = rlc::ringosc::run_coupled_step(
            tech, {cc, c.km}, l, h, k, quiet.initial, quiet.target,
            12.0 * tau, spec.quick ? 800 : 2400, spec.segments_per_line);
        if (dq && di && da && mna.completed) {
          row.d_quiet = *dq;
          row.d_in = *di;
          row.d_anti = *da;
          for (double v : mna.far_end[1]) {
            row.mna_noise = std::max(row.mna_noise, std::abs(v));
          }
          row.rel_err = std::abs(row.noise.peak - row.mna_noise);
          row.ok = true;
        }
        return row;
      });

  Table t("Coupled-line delay spread and victim noise (100 nm, l = 1 nH/mm, "
          "analytical path)",
          {"cc/c", "km", "d_inphase (ps)", "d_quiet (ps)", "d_anti (ps)",
           "victim noise (V)", "MNA noise (V)", "noise abs err"});
  double worst_peak = 0.0, worst_width = 0.0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Row& r = rows[i];
    if (!r.ok) continue;
    t.row({configs[i].ccf, configs[i].km, r.d_in * 1e12, r.d_quiet * 1e12,
           r.d_anti * 1e12, r.noise.peak, r.mna_noise, r.rel_err});
    if (r.noise.peak > worst_peak) {
      worst_peak = r.noise.peak;
      worst_width = r.noise.width;
    }
  }
  res.tables.push_back(std::move(t));
  res.coupling.n_conductors = 2;
  res.coupling.cc = ccfs.back() * line.c;
  res.coupling.km = 0.3;
  res.coupling.peak_noise = worst_peak;
  res.coupling.noise_width = worst_width;
  res.note(
      "Expected shapes (normalized VDD = 1): km = 0 rows show the capacitive "
      "Miller effect — inphase < quiet < antiphase, spread and victim noise "
      "growing with cc.  km = 0.3 rows: inductive coupling acts OPPOSITELY "
      "(in-phase loops see L(1+k), anti-phase L(1-k)), reversing the delay "
      "ordering and partially cancelling the capacitive victim noise as cc "
      "grows — the classic sign difference between C- and L-coupling that "
      "makes inductance-aware noise analysis non-optional for wide buses.");
  return res;
}

ScenarioResult ext_frequency_response(const ScenarioSpec& spec,
                                      ScenarioContext&) {
  ScenarioResult res;
  const auto tech = Technology::nm100();
  std::vector<double> ls = spec.sweep.explicit_l;
  if (ls.empty()) ls = {0.5e-6, 2e-6};
  for (double l : ls) {
    const auto opt = optimize_rlc(tech, l, spec.optim_options());
    if (!opt.converged) {
      throw std::runtime_error(
          "ext_frequency_response: optimization failed at l = " +
          std::to_string(to_nH_per_mm(l)) + " nH/mm");
    }
    const auto dl = tech.rep.scaled(opt.k);
    const auto pc = pade_coeffs_hk(tech.rep, tech.line(l), opt.h, opt.k);

    rlc::spice::Circuit ckt;
    const auto src = ckt.node("src"), drv = ckt.node("drv"),
               end = ckt.node("end");
    ckt.add_vsource("V1", src, ckt.ground(), rlc::spice::DcSpec{0.0}, 1.0);
    ckt.add_resistor("Rs", src, drv, dl.rs_eff);
    ckt.add_capacitor("Cp", drv, ckt.ground(), dl.cp_eff);
    rlc::ringosc::add_rlc_ladder(ckt, "ln", drv, end, tech.line(l), opt.h,
                                 spec.quick ? 16 : 32);
    ckt.add_capacitor("Cl", end, ckt.ground(), dl.cl_eff);

    rlc::spice::AcOptions ao;
    ao.frequencies =
        rlc::spice::log_frequencies(1e8, 2e10, spec.quick ? 2 : 4);
    ao.compute_dc_op = false;
    ao.probes = {rlc::spice::Probe::node_voltage(end, "vend")};
    const auto ac = run_ac(ckt, ao);

    char title[96];
    std::snprintf(title, sizeof title,
                  "|H(jw)|, l = %.1f nH/mm (h_opt = %.2f mm, k_opt = %.0f)",
                  to_nH_per_mm(l), opt.h * 1e3, opt.k);
    Table t(title, {"f (GHz)", "|H| exact", "|H| 2-pole", "|H| ladder"});
    double peak_exact = 0.0;
    for (std::size_t i = 0; i < ao.frequencies.size(); ++i) {
      const double f = ao.frequencies[i];
      const std::complex<double> s{0.0, 2.0 * rlc::math::kPi * f};
      const double mag_exact = std::abs(
          rlc::tline::exact_transfer_dc_safe(tech.line(l), opt.h, dl, s));
      const double mag_pade = std::abs(pade_transfer(pc, s));
      const double mag_ladder = std::abs(ac.signal("vend")[i]);
      peak_exact = std::max(peak_exact, mag_exact);
      t.row({f * 1e-9, mag_exact, mag_pade, mag_ladder});
    }
    res.tables.push_back(std::move(t));

    char key[64];
    std::snprintf(key, sizeof key, "peaking_dB_l%.1f", to_nH_per_mm(l));
    res.metric(key, 20.0 * std::log10(peak_exact));
  }
  res.note(
      "Expected shape: low-pass with a resonant peak that grows with l; "
      "ladder tracks the exact line closely; the 2-pole model captures the "
      "first resonance but not the higher line modes.");
  return res;
}

ScenarioResult ext_scaling_trend(const ScenarioSpec& spec,
                                 ScenarioContext& ctx) {
  ScenarioResult res;
  const double l_test = 2e-6;
  std::vector<double> nodes{250.0, 180.0, 150.0, 130.0, 100.0, 85.0, 70.0};
  if (spec.quick) nodes = {250.0, 150.0, 100.0, 70.0};

  struct NodeRow {
    Technology tech;
    double tau_rc = 0.0, ratio = 0.0, lc = 0.0, undershoot = 0.0;
    bool ok = false;
  };
  // Nodes are independent: one optimization chain per node, fanned out.
  const auto rows =
      rlc::exec::parallel_map(ctx.pool_ref(), nodes, [&](double node_nm) {
        NodeRow row{Technology::interpolated(node_nm * 1e-9)};
        const auto rc = rc_optimum(row.tech);
        const auto at0 = optimize_rlc(row.tech, 0.0, spec.optim_options());
        OptimOptions warm = spec.optim_options();
        warm.h0 = at0.h;
        warm.k0 = at0.k;
        const auto atl = optimize_rlc(row.tech, l_test, warm);
        if (at0.converged && atl.converged) {
          row.ok = true;
          row.tau_rc = rc.tau;
          row.ratio = atl.delay_per_length / at0.delay_per_length;
          row.lc = critical_inductance(row.tech, atl.h, atl.k);
          const TwoPole sys(
              pade_coeffs_hk(row.tech.rep, row.tech.line(l_test), atl.h,
                             atl.k));
          row.undershoot = sys.undershoot() * row.tech.vdd;
        }
        return row;
      });

  Table t("Inductance sensitivity vs technology node (interpolated)",
          {"node", "VDD (V)", "tau_RC (ps)", "delay ratio (l=2nH/mm)",
           "lcrit @opt (nH/mm)", "undershoot @2nH/mm (V)"});
  for (const auto& row : rows) {
    if (!row.ok) continue;
    t.row({row.tech.name, row.tech.vdd, row.tau_rc * 1e12, row.ratio,
           row.lc * 1e6, row.undershoot});
  }
  res.tables.push_back(std::move(t));
  res.note(
      "Expected shape: monotone growth of the delay ratio and of the "
      "absolute ringing amplitude as the node shrinks, with l_crit falling — "
      "the paper's two data points extended to a trend (the interpolation "
      "assumes constant-ratio-per-generation scaling anchored at Table 1).");
  return res;
}

/// 50% delay via repeated Talbot inversion + bisection (the reference used
/// for both resistance models of the skin study).
double delay_of(rlc::laplace::LaplaceFnRef F, double tau_scale,
                int talbot_points) {
  const auto v = [&](double t) {
    return rlc::laplace::talbot_invert(F, t, talbot_points);
  };
  double lo = 0.02 * tau_scale, hi = 8.0 * tau_scale;
  if (v(lo) > 0.5 || v(hi) < 0.5) return -1.0;
  for (int i = 0; i < 55; ++i) {
    const double mid = 0.5 * (lo + hi);
    (v(mid) < 0.5 ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

ScenarioResult ext_skin_effect(const ScenarioSpec& spec,
                               ScenarioContext& ctx) {
  ScenarioResult res;
  const double ws = rlc::tline::skin_crossover_angular_frequency(
      rlc::math::kRhoCopper, 2e-6, 2.5e-6);
  res.metric("skin_crossover_GHz", ws / (2.0 * rlc::math::kPi) * 1e-9);
  res.note("Table 1 wire (2 x 2.5 um Cu).");

  std::vector<double> ls = spec.sweep.explicit_l;
  if (ls.empty()) ls = {0.5e-6, 2e-6, 5e-6};
  if (spec.quick) ls = {0.5e-6, 5e-6};

  double max_shift = 0.0;
  for (const auto& tech : {Technology::nm250(), Technology::nm100()}) {
    const auto rc = rc_optimum(tech);

    struct Shift {
      double t_dc = 0.0, t_skin = 0.0;
    };
    // Each l is two independent bisection-inversion runs: fan out per l.
    const auto shifts =
        rlc::exec::parallel_map(ctx.pool_ref(), ls, [&](double l) {
          const auto line = tech.line(l);
          const auto dl = tech.rep.scaled(rc.k);
          const auto est = segment_delay(tech.rep, line, rc.h, rc.k);
          const auto Fdc = [&](std::complex<double> s) {
            return rlc::tline::exact_transfer_dc_safe(line, rc.h, dl, s) / s;
          };
          const auto Fskin = [&](std::complex<double> s) {
            return rlc::tline::exact_transfer_skin(line, rc.h, dl, ws, s) / s;
          };
          Shift sh;
          sh.t_dc = delay_of(Fdc, est.tau, spec.talbot_points);
          sh.t_skin = delay_of(Fskin, est.tau, spec.talbot_points);
          return sh;
        });

    Table t(tech.name + ": 50% delay, skin-corrected vs DC resistance",
            {"l (nH/mm)", "tau DC-r (ps)", "tau skin (ps)", "shift (%)"});
    for (std::size_t i = 0; i < ls.size(); ++i) {
      const double shift =
          100.0 * (shifts[i].t_skin - shifts[i].t_dc) / shifts[i].t_dc;
      max_shift = std::max(max_shift, std::abs(shift));
      t.row({to_nH_per_mm(ls[i]), shifts[i].t_dc * 1e12,
             shifts[i].t_skin * 1e12, shift});
    }
    res.tables.push_back(std::move(t));
  }
  res.metric("max_abs_shift_pct", max_shift);
  res.note(
      "Expected: delay shifts of a few percent at the low-l end (fast edges "
      "push part of the spectrum past the ~4 GHz crossover) shrinking below "
      "1% at high l where the response slows — small enough that the DC "
      "resistance model is adequate for delay optimization; the skin term "
      "mainly damps the ringing slightly.");
  return res;
}

}  // namespace

void register_extension_scenarios(ScenarioRegistry& r) {
  ScenarioSpec xtalk_defaults;
  xtalk_defaults.segments_per_line = 12;
  r.add({"ext_crosstalk",
         "Coupled-line delay spread and victim noise (100 nm, l = 1 nH/mm)",
         "extension", xtalk_defaults, ext_crosstalk});

  ScenarioSpec freq_defaults;
  freq_defaults.sweep.explicit_l = {0.5e-6, 2e-6};
  r.add({"ext_frequency_response",
         "|H(jw)| of an optimized 100 nm segment, three model levels",
         "extension", freq_defaults, ext_frequency_response});

  r.add({"ext_scaling_trend",
         "Inductance sensitivity vs technology node (interpolated)",
         "extension", {}, ext_scaling_trend});

  ScenarioSpec skin_defaults;
  skin_defaults.sweep.explicit_l = {0.5e-6, 2e-6, 5e-6};
  r.add({"ext_skin_effect",
         "50% delay with skin-corrected resistance vs the DC-r model",
         "extension", skin_defaults, ext_skin_effect});
}

}  // namespace rlc::scenario
