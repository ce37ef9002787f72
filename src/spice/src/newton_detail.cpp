#include "newton_detail.hpp"

#include <algorithm>
#include <cmath>

namespace rlc::spice::detail {

std::vector<double> assemble_and_solve(const Circuit& ckt,
                                       const StampContext& ctx, double gshunt,
                                       SolveWorkspace& ws) {
  const int n = ckt.unknown_count();
  // Robustness shunt on every node voltage unknown (not branch rows), plus
  // the DC gmin convergence aid.
  const double gdiag = gshunt + ctx.gmin;
  const FactorKey key{ctx.analysis, ctx.method, ctx.dt, gdiag};
  // A linear circuit under the kept factors' key has their matrix, bit for
  // bit: only the sources and the companion history in the RHS move.
  const bool reuse = !ckt.has_nonlinear() && ws.key == key;
  ws.triplets.clear();
  ws.rhs.assign(n, 0.0);
  Stamper st(ws.triplets, ws.rhs, !reuse);
  for (const auto& dev : ckt.devices()) dev->stamp(ctx, st);
  if (reuse) return ws.lu->solve(ws.rhs);
  ws.key.reset();
  if (gdiag > 0.0) {
    const int n_nodes = ckt.node_count() - 1;
    for (int i = 0; i < n_nodes; ++i) ws.triplets.push_back({i, i, gdiag});
  }
  const auto& A = ws.compressor.compress(n, n, ws.triplets);
  // Numeric-only refactorization while the pattern holds and the cached
  // pivot order stays stable; fall back to a fresh factorization (with
  // fresh pivoting) otherwise.
  if (ws.lu != nullptr && ws.compressor.reused() && ws.lu->size() == n &&
      ws.lu->refactor(A)) {
    ++ws.refactorizations;
  } else {
    ws.lu = std::make_unique<rlc::linalg::SparseLU>(A);
    ++ws.full_factorizations;
  }
  ws.key = key;
  return ws.lu->solve(ws.rhs);
}

NewtonOutcome newton_solve(const Circuit& ckt, StampContext ctx,
                           const NewtonSettings& st, int n_node_unknowns,
                           std::vector<double>& x, SolveWorkspace& ws) {
  NewtonOutcome out;
  const bool nonlinear = ckt.has_nonlinear();
  std::vector<double> x_new;
  for (int it = 0; it < st.max_iterations; ++it) {
    out.iterations = it + 1;
    ctx.x = &x;
    x_new = assemble_and_solve(ckt, ctx, st.gshunt, ws);
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

}  // namespace rlc::spice::detail
