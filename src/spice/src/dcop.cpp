#include "rlc/spice/dcop.hpp"

#include "newton_detail.hpp"

namespace rlc::spice {

DcResult dc_operating_point(Circuit& ckt, const DcOptions& opts) {
  ckt.finalize();
  const int n = ckt.unknown_count();
  const int n_nodes = ckt.node_count() - 1;

  detail::NewtonSettings ns;
  ns.max_iterations = opts.max_iterations;
  ns.reltol = opts.reltol;
  ns.abstol_v = opts.abstol_v;
  ns.abstol_i = opts.abstol_i;
  ns.max_voltage_step = opts.max_voltage_step;

  StampContext ctx;
  ctx.analysis = Analysis::kDc;
  ctx.gmin = opts.gmin_final;
  ctx.source_scale = 1.0;

  detail::SolveWorkspace ws;
  ws.companions.build(ckt);

  DcResult res;
  res.x.assign(n, 0.0);

  // 1) Direct attempt.
  auto out = detail::newton_solve(ckt, ctx, ns, n_nodes, res.x, ws);
  if (out.converged) {
    res.converged = true;
    res.iterations = out.iterations;
    return res;
  }

  // 2) Gmin stepping: solve with a large gmin and relax it decade by decade,
  //    warm-starting each stage.
  res.x.assign(n, 0.0);
  bool ladder_ok = true;
  for (double gmin = 1e-2; gmin >= opts.gmin_final * 0.99; gmin *= 0.1) {
    ctx.gmin = gmin;
    out = detail::newton_solve(ckt, ctx, ns, n_nodes, res.x, ws);
    if (!out.converged) {
      ladder_ok = false;
      break;
    }
  }
  if (ladder_ok) {
    ctx.gmin = opts.gmin_final;
    out = detail::newton_solve(ckt, ctx, ns, n_nodes, res.x, ws);
    if (out.converged) {
      res.converged = true;
      res.iterations = out.iterations;
      res.used_gmin_stepping = true;
      return res;
    }
  }

  // 3) Source stepping: ramp all independent sources from 0 to full value.
  res.x.assign(n, 0.0);
  ctx.gmin = opts.gmin_final;
  bool ramp_ok = true;
  for (int step = 1; step <= 20; ++step) {
    ctx.source_scale = static_cast<double>(step) / 20.0;
    out = detail::newton_solve(ckt, ctx, ns, n_nodes, res.x, ws);
    if (!out.converged) {
      ramp_ok = false;
      break;
    }
  }
  if (ramp_ok) {
    res.converged = true;
    res.iterations = out.iterations;
    res.used_source_stepping = true;
    return res;
  }
  res.converged = false;
  return res;
}

}  // namespace rlc::spice
