/// Power-aware sizing scenarios: the objective-API redesign's second axis.
/// power_<node> runs the delay-slack-constrained power minimization
/// (core::optimize, objective kPower) over an eps ladder and cross-checks
/// every answer against a brute-force sweep of the SAME log-spaced (h, k)
/// grid the solver and the Pareto front use; pareto_<node> emits the
/// non-dominated delay-power set itself.
///
/// Both run at the paper's coupled-scenario operating point, l = 1 nH/mm.
/// The chain power model (power.hpp) is const + K (k/h) in the sizing, so
/// the minimum-power end of every trade-off is the domain corner
/// (h_max, k_min) — the tables make that monotone structure visible and
/// the validator pins it.

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "rlc/core/delay.hpp"
#include "rlc/core/optimize_api.hpp"
#include "rlc/core/optimizer.hpp"
#include "rlc/core/power.hpp"
#include "rlc/scenario/registry.hpp"

namespace rlc::scenario {

namespace {

using namespace rlc::core;

constexpr double kPowerL = 1.0e-6;  ///< 1 nH/mm, the power test length

/// The request every solve of one scenario shares.  quick shrinks the
/// grid the same way for the solver, the Pareto sweep and the brute force,
/// so the in-table agreement holds in both modes.
OptimizeRequest base_request(const ScenarioSpec& spec) {
  OptimizeRequest req;
  req.objective = Objective::kPower;
  req.l = kPowerL;
  req.optim = spec.optim_options();
  if (spec.quick) {
    req.domain.h_points = 13;
    req.domain.k_points = 13;
  }
  return req;
}

/// Brute-force evaluation of the request's (h, k) grid: delay per length
/// and chain power at every point, rows fanned over the pool (index-ordered
/// reduce, so the numbers are thread-count independent).
struct GridEval {
  std::vector<double> hg, kg;      ///< the shared log_grid axes
  std::vector<double> dpl, power;  ///< row-major [k][h]; dpl 0 = no converge
  OptimResult un;                  ///< the delay optimum the grid centers on
};

GridEval evaluate_grid(const Technology& tech, const OptimizeRequest& req,
                       ScenarioContext& ctx) {
  GridEval g;
  g.un = optimize_rlc(tech, req.l, req.optim);
  if (!g.un.converged) {
    throw std::runtime_error("power grid: delay-optimal solve did not "
                             "converge");
  }
  g.hg = log_grid(g.un.h, req.domain.h_min_scale, req.domain.h_max_scale,
                  req.domain.h_points);
  g.kg = log_grid(g.un.k, req.domain.k_min_scale, req.domain.k_max_scale,
                  req.domain.k_points);
  const tline::LineParams line = tech.line(req.l);
  DelayOptions dopt;
  dopt.f = req.optim.f;
  const auto rows =
      rlc::exec::parallel_map(ctx.pool_ref(), g.kg, [&](double k) {
        std::vector<double> row;
        row.reserve(2 * g.hg.size());
        for (double h : g.hg) {
          const auto d = segment_delay(tech.rep, line, h, k, dopt);
          row.push_back(d.converged ? d.tau / h : 0.0);
          row.push_back(chain_power_per_length(tech, h, k, req.power));
        }
        return row;
      });
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); i += 2) {
      g.dpl.push_back(row[i]);
      g.power.push_back(row[i + 1]);
    }
  }
  return g;
}

/// Minimum grid power subject to dpl <= bound; negative when no grid point
/// is feasible (possible at eps = 0: the continuous optimum need not land
/// on a grid node).
double grid_min_power(const GridEval& g, double bound) {
  double best = -1.0;
  for (std::size_t i = 0; i < g.dpl.size(); ++i) {
    if (g.dpl[i] <= 0.0 || g.dpl[i] > bound) continue;
    if (best < 0.0 || g.power[i] < best) best = g.power[i];
  }
  return best;
}

// ---------------------------------------------------------------------------
// power_<node>: constrained solves over an eps ladder + grid cross-check.

ScenarioResult power_objective(const ScenarioSpec& spec, ScenarioContext& ctx,
                               const std::string& tech_name) {
  ScenarioResult res;
  const Technology tech = technology_by_name(tech_name);
  const OptimizeRequest base = base_request(spec);
  const std::vector<double> eps_list =
      spec.quick ? std::vector<double>{0.0, 0.05, 0.10}
                 : std::vector<double>{0.0, 0.02, 0.05, 0.10, 0.20};

  const GridEval grid = evaluate_grid(tech, base, ctx);

  const auto solves =
      rlc::exec::parallel_map(ctx.pool_ref(), eps_list, [&](double eps) {
        OptimizeRequest req = base;
        req.constraints.delay_slack_eps = eps;
        rlc::StatusOr<OptimizeResponse> resp = optimize(tech, req);
        if (!resp.is_ok()) {
          throw std::runtime_error("power solve (eps=" +
                                   std::to_string(eps) +
                                   "): " + resp.status().to_string());
        }
        return *resp;
      });

  Table t("Power-constrained (h, k): power bought by delay slack "
          "(l = 1 nH/mm, " + tech_name + ")",
          {"eps", "h (mm)", "k", "delay/len (ps/mm)", "power (mW/m)",
           "saved (%)", "active", "grid p (mW/m)"});
  double saved_5 = 0.0, saved_10 = 0.0, worst_grid_excess = 0.0;
  for (std::size_t i = 0; i < eps_list.size(); ++i) {
    const OptimizeResponse& r = solves[i];
    const double p = r.power.total();
    const double saved = 100.0 * (1.0 - p / r.power_ref);
    const double bound = (1.0 + eps_list[i]) * r.delay_ref;
    const double gp = grid_min_power(grid, bound);
    t.row({eps_list[i], r.sizing.h * 1e3, r.sizing.k,
           r.sizing.delay_per_length * 1e9, p * 1e3, saved,
           r.delay_constraint_active ? 1 : 0,
           gp > 0.0 ? Value(gp * 1e3) : Value("-")});
    if (eps_list[i] == 0.05) saved_5 = saved;
    if (eps_list[i] == 0.10) saved_10 = saved;
    if (gp > 0.0) {
      // The solver searches the continuous boundary of the same domain, so
      // it must never do worse than the best feasible grid point.
      worst_grid_excess = std::max(worst_grid_excess, 100.0 * (p / gp - 1.0));
    }
  }
  res.tables.push_back(std::move(t));
  res.metric("delay_ref_ps_mm", solves.front().delay_ref * 1e9);
  res.metric("power_ref_mW_m", solves.front().power_ref * 1e3);
  res.metric("power_saved_pct_eps5", saved_5);
  res.metric("power_saved_pct_eps10", saved_10);
  res.metric("max_grid_excess_pct", worst_grid_excess);
  res.note(
      "Every row satisfies delay <= (1 + eps) * T_opt.  eps = 0 is bitwise "
      "the delay-optimal point; growing slack buys power by stretching the "
      "segments (larger h) and shrinking the repeaters (smaller k), since "
      "chain power per length is const + K (k/h).  The grid column is the "
      "cheapest feasible point of the brute-force (h, k) grid the solver "
      "shares with the Pareto sweep; max_grid_excess_pct pins the solver at "
      "or below it (\"-\": no grid point meets the bound).");
  return res;
}

ScenarioResult power_100nm(const ScenarioSpec& spec, ScenarioContext& ctx) {
  return power_objective(spec, ctx, "100nm");
}

ScenarioResult power_35nm(const ScenarioSpec& spec, ScenarioContext& ctx) {
  return power_objective(spec, ctx, "35nm");
}

// ---------------------------------------------------------------------------
// pareto_<node>: the non-dominated delay-power set over the shared grid.

ScenarioResult pareto_objective(const ScenarioSpec& spec, ScenarioContext& ctx,
                                const std::string& tech_name) {
  ScenarioResult res;
  const Technology tech = technology_by_name(tech_name);
  const OptimizeRequest req = base_request(spec);

  rlc::StatusOr<std::vector<ParetoPoint>> front =
      pareto_front(tech, req, ctx.pool);
  if (!front.is_ok()) {
    throw std::runtime_error("pareto_front: " + front.status().to_string());
  }

  Table t("Delay-power Pareto front over the (h, k) grid (l = 1 nH/mm, " +
              tech_name + "; sorted by delay, power strictly decreasing)",
          {"h (mm)", "k", "delay/len (ps/mm)", "power (mW/m)", "dyn (mW/m)",
           "sc (mW/m)", "leak (mW/m)"});
  for (const ParetoPoint& p : *front) {
    t.row({p.h * 1e3, p.k, p.delay_per_length * 1e9, p.power_per_length * 1e3,
           p.power.dynamic * 1e3, p.power.short_circuit * 1e3,
           p.power.leakage * 1e3});
  }
  res.tables.push_back(std::move(t));
  res.metric("front_points", static_cast<double>(front->size()));
  if (!front->empty()) {
    res.metric("delay_min_ps_mm", front->front().delay_per_length * 1e9);
    res.metric("delay_max_ps_mm", front->back().delay_per_length * 1e9);
    res.metric("power_max_mW_m", front->front().power_per_length * 1e3);
    res.metric("power_min_mW_m", front->back().power_per_length * 1e3);
    // Knee economics: what the last doubling of delay buys in power.
    res.metric("power_span_ratio", front->front().power_per_length /
                                       front->back().power_per_length);
  }
  res.note(
      "Non-dominance is structural: the rows are sorted by delay and each "
      "successive row has strictly lower power, so no row is beaten on both "
      "axes by another (the validator re-checks).  The fast end is the "
      "delay optimum's grid neighbourhood; the frugal end is the "
      "(h_max, k_min) domain corner that the eps = inf constrained solve "
      "returns bitwise.");
  return res;
}

ScenarioResult pareto_100nm(const ScenarioSpec& spec, ScenarioContext& ctx) {
  return pareto_objective(spec, ctx, "100nm");
}

ScenarioResult pareto_35nm(const ScenarioSpec& spec, ScenarioContext& ctx) {
  return pareto_objective(spec, ctx, "35nm");
}

}  // namespace

void register_power_scenarios(ScenarioRegistry& r) {
  r.add({"power_100nm",
         "Power-minimal (h, k) under a delay-slack ladder, 100 nm node",
         "extension", {}, power_100nm, "power"});
  r.add({"power_35nm",
         "Power-minimal (h, k) under a delay-slack ladder, extrapolated "
         "35 nm node",
         "extension", {}, power_35nm, "power"});
  r.add({"pareto_100nm",
         "Non-dominated delay-power front over the (h, k) grid, 100 nm node",
         "extension", {}, pareto_100nm, "power"});
  r.add({"pareto_35nm",
         "Non-dominated delay-power front over the (h, k) grid, extrapolated "
         "35 nm node",
         "extension", {}, pareto_35nm, "power"});
}

}  // namespace rlc::scenario
