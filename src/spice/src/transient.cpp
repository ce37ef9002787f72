#include "rlc/spice/transient.hpp"

#include <algorithm>

#include <cmath>
#include <stdexcept>

#include "newton_detail.hpp"
#include "rlc/obs/metrics.hpp"
#include "rlc/obs/trace.hpp"
#include "rlc/spice/dcop.hpp"

namespace rlc::spice {

const std::vector<double>& TransientResult::signal(
    const std::string& label) const {
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == label) return signals[i];
  }
  throw std::out_of_range("TransientResult::signal: no probe labelled '" +
                          label + "'");
}

namespace {

double eval_probe(const Probe& p, const std::vector<double>& x) {
  // Exhaustive over Probe::Kind: a probe the recorder does not understand
  // must fail loudly, not silently record zeros.
  switch (p.kind) {
    case Probe::Kind::kNodeVoltage:
      return p.node == 0 ? 0.0 : x[p.node - 1];
    case Probe::Kind::kBranchCurrent:
      return x[p.device->branch_base()];
    case Probe::Kind::kResistorCurrent:
      return static_cast<const Resistor*>(p.device)->current(x);
  }
  throw std::logic_error("eval_probe: unknown probe kind '" + p.label + "'");
}

/// Records one transient's counts when it returns, whatever its outcome:
/// once per run, never per step.  Observation only.
struct TransientScope {
  const long* steps;
  const long* newton_iterations;
  const detail::SolveWorkspace* ws;
  ~TransientScope() {
    auto& reg = obs::Registry::global();
    static const int kRuns = reg.counter("spice.transient.runs");
    static const int kSteps = reg.counter("spice.transient.steps");
    static const int kNewton = reg.counter("spice.transient.newton_iterations");
    static const int kFactorizations =
        reg.counter("spice.transient.factorizations");
    static const int kBorderFactorizations =
        reg.counter("spice.transient.border_factorizations");
    static const int kFactorNonzeros =
        reg.counter("spice.transient.factor_nonzeros");
    reg.add(kRuns);
    reg.add(kSteps, *steps);
    reg.add(kNewton, *newton_iterations);
    reg.add(kFactorizations, ws->full_factorizations + ws->refactorizations);
    reg.add(kBorderFactorizations, ws->border_factorizations);
    reg.add(kFactorNonzeros, ws->factor_nonzeros);
  }
};

void record_factorizations(TransientResult& res,
                           const detail::SolveWorkspace& ws) {
  res.factorizations = ws.full_factorizations + ws.refactorizations;
  res.border_factorizations = ws.border_factorizations;
}

}  // namespace

TransientResult run_transient(Circuit& ckt, const TransientOptions& opts) {
  RLC_TRACE_SPAN("spice_transient");
  if (!(opts.tstop > 0.0) || !(opts.dt > 0.0) || opts.dt > opts.tstop) {
    throw std::invalid_argument("run_transient: need 0 < dt <= tstop");
  }
  ckt.finalize();
  const int n = ckt.unknown_count();
  const int n_nodes = ckt.node_count() - 1;

  // ---- Initial state. ----
  std::vector<double> x(n, 0.0);
  if (opts.start_from_dc) {
    const DcResult dc = dc_operating_point(ckt);
    if (!dc.converged) {
      throw std::runtime_error("run_transient: initial DC solve failed");
    }
    x = dc.x;
  } else {
    for (const auto& [node, v] : opts.initial_voltages) {
      if (node > 0) x[node - 1] = v;
    }
    for (const auto& dev : ckt.devices()) {
      if (const auto* ind = dynamic_cast<const Inductor*>(dev.get())) {
        x[ind->branch_base()] = ind->initial_current();
      }
    }
  }

  StampContext ctx;
  ctx.analysis = Analysis::kTransient;
  ctx.method = opts.method;
  ctx.time = 0.0;
  ctx.dt = opts.dt;
  ctx.x = &x;
  for (const auto& dev : ckt.devices()) dev->init_history(ctx);

  // ---- Probes. ----
  std::vector<Probe> probes = opts.probes;
  if (probes.empty()) {
    for (NodeId nd = 1; nd < ckt.node_count(); ++nd) {
      probes.push_back(Probe::node_voltage(nd, "v(" + ckt.node_name(nd) + ")"));
    }
  }

  TransientResult res;
  res.labels.reserve(probes.size());
  for (const auto& p : probes) res.labels.push_back(p.label);
  res.signals.assign(probes.size(), {});

  const auto record = [&](double t, const std::vector<double>& sol) {
    if (t + 1e-18 < opts.record_start) return;
    res.time.push_back(t);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      res.signals[i].push_back(eval_probe(probes[i], sol));
    }
  };
  record(0.0, x);

  detail::NewtonSettings ns;
  ns.max_iterations = opts.max_newton;
  ns.reltol = opts.reltol;
  ns.abstol_v = opts.abstol_v;
  ns.abstol_i = opts.abstol_i;
  ns.max_voltage_step = opts.max_voltage_step;

  detail::SolveWorkspace ws;
  double t = 0.0;
  double dt_cur = opts.dt;
  const double dt_min = opts.dt / std::pow(2.0, opts.max_step_halvings);
  int successes_at_reduced_dt = 0;
  long accepted = 0;
  const TransientScope scope{&accepted, &res.newton_iterations, &ws};
  std::vector<double> x_try;
  // History for the LTE predictor: the two previous accepted solutions.
  std::vector<double> x_prev1, x_prev2;
  double dt_prev = opts.dt;

  // Stop within a sliver of the step from tstop: the summed t often lands
  // a few ulps short, and one more step of ~1e-11 dt would follow.
  const double t_end = opts.tstop - 1e-9 * opts.dt;
  while (t < t_end) {
    dt_cur = std::min(dt_cur, opts.tstop - t);
    const Integrator method_eff = (accepted < opts.be_startup_steps)
                                      ? Integrator::kBackwardEuler
                                      : opts.method;
    ctx.method = method_eff;
    ctx.time = t + dt_cur;
    ctx.dt = dt_cur;

    x_try = x;  // previous solution as the Newton initial guess
    const auto out = detail::newton_solve(ckt, ctx, ns, n_nodes, x_try, ws);
    res.newton_iterations += out.iterations;
    if (!out.converged) {
      res.steps_rejected++;
      dt_cur *= 0.5;
      successes_at_reduced_dt = 0;
      if (dt_cur < dt_min) {
        res.completed = false;
        record_factorizations(res, ws);
        return res;
      }
      continue;
    }
    // ---- LTE control (opt-in): compare the trapezoidal corrector with a
    //      linear predictor through the two previous accepted points; the
    //      difference scales with the O(dt^3) local truncation error. ----
    if (opts.adaptive_lte && accepted >= opts.be_startup_steps + 2 &&
        !x_prev1.empty() && !x_prev2.empty()) {
      double err = 0.0;
      const double slope_scale = dt_cur / dt_prev;
      for (int i = 0; i < n_nodes; ++i) {
        const double pred =
            x_prev1[i] + (x_prev1[i] - x_prev2[i]) * slope_scale;
        const double e = std::abs(x_try[i] - pred) /
                         (opts.lte_abstol_v +
                          opts.lte_reltol * std::abs(x_try[i]));
        err = std::max(err, e);
      }
      // The predictor difference is ~3x the trapezoidal LTE; normalize so
      // err ~ 1 sits at the tolerance.
      err /= 3.0;
      if (err > 1.0 && dt_cur > dt_min * (1.0 + 1e-12)) {
        res.steps_rejected++;
        dt_cur = std::max(dt_min,
                          dt_cur * std::clamp(0.9 / std::cbrt(err), 0.2, 0.9));
        continue;  // re-solve the step with the smaller dt
      }
      // Accepted: grow toward the base step when the error allows.
      const double grow = err > 0.0 ? 0.9 / std::cbrt(err) : 2.0;
      dt_cur = std::min(opts.dt, dt_cur * std::clamp(grow, 0.5, 2.0));
    }

    // Accept the step.  Only the LTE control reads the history.
    if (opts.adaptive_lte) {
      x_prev2.swap(x_prev1);
      x_prev1 = x_try;
    }
    dt_prev = dt_cur;
    x.swap(x_try);
    ctx.x = &x;
    for (const auto& dev : ckt.devices()) dev->commit_step(ctx);
    t = ctx.time;
    ++accepted;
    record(t, x);
    if (!opts.adaptive_lte && dt_cur < opts.dt) {
      if (++successes_at_reduced_dt >= 2) {
        dt_cur = std::min(2.0 * dt_cur, opts.dt);
        successes_at_reduced_dt = 0;
      }
    }
  }
  res.steps_accepted = accepted;
  res.completed = true;
  record_factorizations(res, ws);
  return res;
}

}  // namespace rlc::spice
