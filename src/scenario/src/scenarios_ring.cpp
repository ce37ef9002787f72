/// Ring-oscillator scenarios (Section 3.3): Figures 9-10 waveforms, the
/// Figure 11 period-vs-inductance study with its buffered-line control, and
/// the Figure 12 current-density reliability check.  These are the
/// transient-simulation-heavy scenarios, so quick mode trims the l-lists
/// and ladder sizes to keep CI smoke runs in seconds.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "rlc/core/elmore.hpp"
#include "rlc/ringosc/ring.hpp"
#include "rlc/scenario/registry.hpp"

namespace rlc::scenario {

namespace {

using rlc::core::Technology;
using namespace rlc::ringosc;

RingParams ring_params(const ScenarioSpec& spec, double l, double h,
                       double k) {
  RingParams p;
  p.stages = spec.ring_stages;
  p.segments_per_line = spec.segments_per_line;
  p.l = l;
  p.h = h;
  p.k = k;
  return p;
}

ScenarioResult fig9_10(const ScenarioSpec& spec, ScenarioContext& ctx) {
  ScenarioResult res;
  const auto tech = Technology::nm100();
  const auto rc = rlc::core::rc_optimum(tech);
  const std::vector<double> lvals =
      spec.sweep.explicit_l.empty() ? std::vector<double>{1.8e-6, 2.2e-6}
                                    : spec.sweep.explicit_l;

  // The two ring transients are independent: fan them over the pool.
  const auto results =
      rlc::exec::parallel_map(ctx.pool_ref(), lvals, [&](double l) {
        return simulate_ring(tech, ring_params(spec, l, rc.h, rc.k));
      });

  std::vector<double> periods;
  for (std::size_t which = 0; which < lvals.size(); ++which) {
    const auto& r = results[which];
    if (!r.completed) {
      throw std::runtime_error("fig9_10: ring simulation failed for l = " +
                               std::to_string(to_nH_per_mm(lvals[which])) +
                               " nH/mm");
    }
    const double period = r.period.value_or(0.0);
    periods.push_back(period);

    char title[96];
    std::snprintf(title, sizeof title,
                  "Inverter waveforms, l = %.1f nH/mm (Figure %s)",
                  to_nH_per_mm(lvals[which]), which == 0 ? "9" : "10");
    Table t(title, {"t (ns)", "v_in (V)", "v_out (V)"});
    // One settled period and a half, 40 samples.
    const double t0 = r.time.front();
    const double span = 1.5 * (period > 0 ? period : r.t_estimate);
    std::size_t idx = 0;
    const int samples = spec.quick ? 20 : 40;
    for (int s = 0; s <= samples; ++s) {
      const double ts = t0 + span * s / samples;
      while (idx + 1 < r.time.size() && r.time[idx] < ts) ++idx;
      t.row({(r.time[idx] - t0) * 1e9, r.v_in[idx], r.v_out[idx]});
    }
    res.tables.push_back(std::move(t));

    const std::string suffix = std::to_string(which);
    res.metric("period_ns_" + suffix, period * 1e9);
    res.metric("input_overshoot_V_" + suffix, r.input_excursion.overshoot);
    res.metric("input_undershoot_V_" + suffix, r.input_excursion.undershoot);
  }
  if (periods.size() >= 2 && periods[0] > 0.0) {
    res.metric("period_ratio", periods[1] / periods[0]);
  }
  res.metric("vdd", tech.vdd);
  res.note(
      "(paper: the 2.2 nH/mm period is LESS THAN HALF the 1.8 nH/mm period — "
      "onset of false switching; expect period_ratio < 0.5)");
  return res;
}

ScenarioResult fig11(const ScenarioSpec& spec, ScenarioContext& ctx) {
  ScenarioResult res;
  struct Series {
    Technology tech;
    std::vector<double> ls;
  };
  Series series[] = {
      {Technology::nm100(), spec.sweep.explicit_l},
      {Technology::nm250(), {0.2e-6, 1.0e-6, 2.0e-6, 3.5e-6, 5.0e-6}},
  };
  if (series[0].ls.empty()) {
    series[0].ls = {0.2e-6, 0.8e-6, 1.4e-6, 1.8e-6, 2.0e-6,
                    2.2e-6, 2.6e-6, 3.5e-6, 5.0e-6};
  }
  if (spec.quick) {
    // Keep the collapse bracket (1.8 -> 2.2 nH/mm) and the endpoints.
    series[0].ls = {0.2e-6, 1.8e-6, 2.2e-6, 5.0e-6};
    series[1].ls = {0.2e-6, 5.0e-6};
  }

  for (auto& s : series) {
    const auto rc = rlc::core::rc_optimum(s.tech);
    // Each inductance point is an independent ring transient: fan them out
    // over the pool, then tabulate in grid order.
    const auto results =
        rlc::exec::parallel_map(ctx.pool_ref(), s.ls, [&](double l) {
          return simulate_ring(s.tech, ring_params(spec, l, rc.h, rc.k));
        });

    char title[96];
    std::snprintf(title, sizeof title,
                  "%s ring period vs l (h = h_optRC = %.2f mm, k = %.0f)",
                  s.tech.name.c_str(), rc.h * 1e3, rc.k);
    Table t(title, {"l (nH/mm)", "period (ns)", "in overshoot (V)",
                    "in undershoot (V)", "collapse"});
    double prev_period = -1.0;
    for (std::size_t i = 0; i < s.ls.size(); ++i) {
      const auto& r = results[i];
      const double period = r.completed ? r.period.value_or(-1.0) : -1.0;
      const bool collapse =
          prev_period > 0.0 && period > 0.0 && period < 0.6 * prev_period;
      t.row({to_nH_per_mm(s.ls[i]), period * 1e9,
             r.input_excursion.overshoot, r.input_excursion.undershoot,
             collapse ? "COLLAPSE" : ""});
      if (collapse) {
        res.metric("collapse_onset_" + s.tech.name + "_nH_per_mm",
                   to_nH_per_mm(s.ls[i]));
      }
      prev_period = period;
    }
    res.tables.push_back(std::move(t));
  }

  if (!spec.quick) {
    // Control: square-wave-driven 5-stage buffered line past the collapse —
    // shows the false switching is not a ring artifact.
    const auto tech = Technology::nm100();
    const auto rc = rlc::core::rc_optimum(tech);
    const auto p = ring_params(spec, 2.6e-6, rc.h, rc.k);
    const double drive = 30.0 * rc.tau;
    const auto r = simulate_buffered_line(tech, p, drive, 5);
    res.metric("buffered_line_transition_ratio", r.transition_ratio);
    res.note(
        "Control: square-wave-driven 5-stage buffered line, 100 nm, l = 2.6 "
        "nH/mm; output transitions per drive transition > 1 means false "
        "switching, matching the ring.");
  }
  res.note(
      "(paper: sharp period drop near l ~ 2 nH/mm at 100 nm only; the same "
      "false switching appears on the non-ring buffered line)");
  return res;
}

ScenarioResult fig12(const ScenarioSpec& spec, ScenarioContext& ctx) {
  ScenarioResult res;
  const auto tech = Technology::nm100();
  const auto rc = rlc::core::rc_optimum(tech);
  std::vector<double> ls = spec.sweep.explicit_l;
  if (ls.empty()) {
    ls = {0.2e-6, 0.8e-6, 1.4e-6, 1.8e-6, 2.6e-6, 3.5e-6, 5.0e-6};
  }
  if (spec.quick) ls = {0.2e-6, 1.8e-6};

  const auto results =
      rlc::exec::parallel_map(ctx.pool_ref(), ls, [&](double l) {
        return simulate_ring(tech, ring_params(spec, l, rc.h, rc.k));
      });

  Table t("Peak and rms wire current density vs line inductance (100 nm)",
          {"l (nH/mm)", "J_peak (A/m^2)", "J_rms (A/m^2)", "EM flag",
           "heat flag"});
  double jpk_min = 1e300, jpk_max = 0.0, jrms_min = 1e300, jrms_max = 0.0;
  for (std::size_t i = 0; i < ls.size(); ++i) {
    const auto& r = results[i];
    if (!r.completed) continue;
    t.row({to_nH_per_mm(ls[i]), r.wire_density.j_peak, r.wire_density.j_rms,
           r.wire_density.em_concern ? "YES" : "no",
           r.wire_density.joule_concern ? "YES" : "no"});
    // Track the spread in the functional (pre-false-switching) regime that
    // the paper's flatness claim refers to.
    if (ls[i] <= 1.8e-6) {
      jpk_min = std::min(jpk_min, r.wire_density.j_peak);
      jpk_max = std::max(jpk_max, r.wire_density.j_peak);
      jrms_min = std::min(jrms_min, r.wire_density.j_rms);
      jrms_max = std::max(jrms_max, r.wire_density.j_rms);
    }
  }
  res.tables.push_back(std::move(t));
  res.metric("wire_width_um", tech.width * 1e6);
  res.metric("wire_thickness_um", tech.thickness * 1e6);
  res.metric("j_peak_spread_functional", jpk_max / jpk_min);
  res.metric("j_rms_spread_functional", jrms_max / jrms_min);
  res.note(
      "(paper: both densities do not change appreciably with l => "
      "interconnect reliability is not degraded by inductance variation. "
      "Past the false-switching onset the ring toggles ~2-3x faster and the "
      "rms density steps up with it — a symptom of the Figure 11 failure, "
      "not an inductance-driven reliability mechanism.)");
  return res;
}

}  // namespace

void register_ring_scenarios(ScenarioRegistry& r) {
  ScenarioSpec wave_defaults;
  wave_defaults.segments_per_line = 16;
  wave_defaults.sweep.explicit_l = {1.8e-6, 2.2e-6};
  r.add({"fig9_10",
         "Ring-oscillator inverter input/output waveforms, 100 nm node",
         "figure", wave_defaults, fig9_10});

  ScenarioSpec period_defaults;
  period_defaults.sweep.explicit_l = {0.2e-6, 0.8e-6, 1.4e-6, 1.8e-6, 2.0e-6,
                                      2.2e-6, 2.6e-6, 3.5e-6, 5.0e-6};
  r.add({"fig11", "Ring-oscillator period vs line inductance", "figure",
         period_defaults, fig11});

  ScenarioSpec density_defaults;
  density_defaults.sweep.explicit_l = {0.2e-6, 0.8e-6, 1.4e-6, 1.8e-6,
                                       2.6e-6, 3.5e-6, 5.0e-6};
  r.add({"fig12",
         "Peak and rms wire current density vs line inductance (100 nm)",
         "figure", density_defaults, fig12});
}

}  // namespace rlc::scenario
