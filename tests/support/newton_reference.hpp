#pragma once

/// \file newton_reference.hpp
/// Test-support reference for the transient Newton loop (no library code
/// calls it): the full-vector loop, which forms x_I = y_I - W x_B and
/// scatters the whole solution at every bordered iteration, then tests,
/// clamps and updates every unknown.  detail::newton_solve, which iterates
/// on the border alone, is pinned to it bit for bit.

#include <vector>

#include "../../src/spice/src/newton_detail.hpp"

namespace rlc::spice {

/// detail::newton_solve's contract, with every iteration on the full
/// vector: solve_border's x_B with its interior, or solve_full's x.  Both
/// take the linear right-hand side from ws.companions, which the caller
/// builds, starts and commits as run_transient does.
detail::NewtonOutcome reference_newton_solve(
    const Circuit& ckt, StampContext ctx, const detail::NewtonSettings& st,
    int n_node_unknowns, std::vector<double>& x, detail::SolveWorkspace& ws);

}  // namespace rlc::spice
