#include "support/newton_reference.hpp"

#include <algorithm>
#include <cmath>

namespace rlc::spice {

detail::NewtonOutcome reference_newton_solve(
    const Circuit& ckt, StampContext ctx, const detail::NewtonSettings& st,
    int n_node_unknowns, std::vector<double>& x, detail::SolveWorkspace& ws) {
  detail::NewtonOutcome out;
  const bool nonlinear = ckt.has_nonlinear();
  std::vector<double> x_new, xi;
  for (int it = 0; it < st.max_iterations; ++it) {
    out.iterations = it + 1;
    ctx.x = &x;
    if (detail::solve_border(ckt, ctx, st.gshunt, ws, it == 0)) {
      const detail::BorderedSolve& bs = ws.bordered;
      bs.form_interior(bs.xb, xi);
      x_new.assign(x.size(), 0.0);
      for (std::size_t k = 0; k < bs.interior.size(); ++k) {
        x_new[bs.interior[k]] = xi[k];
      }
      for (std::size_t k = 0; k < bs.border.size(); ++k) {
        x_new[bs.border[k]] = bs.xb[k];
      }
    } else {
      x_new = detail::solve_full(ckt, ctx, st.gshunt, ws);
    }
    bool finite = true;
    for (double v : x_new) {
      if (!std::isfinite(v)) {
        finite = false;
        break;
      }
    }
    if (!finite) return out;  // diverged
    if (!nonlinear) {
      // Linear system: one solve is exact.
      x = std::move(x_new);
      out.converged = true;
      return out;
    }
    // Convergence test on the update, then damp (clamp) node voltages.
    bool converged = true;
    const std::size_t n = x.size();
    for (std::size_t i = 0; i < n; ++i) {
      const double delta = x_new[i] - x[i];
      const bool is_node = static_cast<int>(i) < n_node_unknowns;
      const double abstol = is_node ? st.abstol_v : st.abstol_i;
      if (std::abs(delta) > abstol + st.reltol * std::abs(x_new[i])) {
        converged = false;
      }
    }
    if (converged) {
      x = std::move(x_new);
      out.converged = true;
      return out;
    }
    for (std::size_t i = 0; i < n; ++i) {
      double delta = x_new[i] - x[i];
      if (static_cast<int>(i) < n_node_unknowns) {
        delta = std::clamp(delta, -st.max_voltage_step, st.max_voltage_step);
      }
      x[i] += delta;
    }
  }
  return out;
}

}  // namespace rlc::spice
