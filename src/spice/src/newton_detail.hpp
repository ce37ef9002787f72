#pragma once

/// Internal shared Newton machinery for the DC and transient analyses.

#include <memory>
#include <optional>
#include <vector>

#include "rlc/linalg/sparse.hpp"
#include "rlc/linalg/sparse_lu.hpp"
#include "rlc/spice/circuit.hpp"

namespace rlc::spice::detail {

struct NewtonSettings {
  int max_iterations = 100;
  double reltol = 1e-6;
  double abstol_v = 1e-9;   ///< node-voltage convergence floor [V]
  double abstol_i = 1e-12;  ///< branch-current convergence floor [A]
  double max_voltage_step = 1.0;  ///< per-iteration clamp on node updates [V]
  double gshunt = 1e-12;    ///< node-to-ground conductance for robustness
};

struct NewtonOutcome {
  bool converged = false;
  int iterations = 0;
};

/// What fixes the matrix of a linear circuit (see Device::nonlinear()).
struct FactorKey {
  Analysis analysis = Analysis::kDc;
  Integrator method = Integrator::kTrapezoidal;
  double dt = 0.0;
  double gdiag = 0.0;  ///< gshunt + gmin on every node unknown
  bool operator==(const FactorKey&) const = default;
};

/// Reusable state across Newton iterations and time steps of one analysis:
/// the cached triplet-to-CSC mapping and the last LU factors.  A linear
/// circuit reuses the factors as they are while `key` holds (set only while
/// `lu` factors the matrix of that key); otherwise the factors serve
/// numeric-only refactorization, keyed on the MNA sparsity pattern, which
/// is stable within an analysis.
struct SolveWorkspace {
  rlc::linalg::TripletCompressor compressor;
  std::unique_ptr<rlc::linalg::SparseLU> lu;
  std::optional<FactorKey> key;
  std::vector<rlc::linalg::Triplet> triplets;
  std::vector<double> rhs;
  long full_factorizations = 0;
  long refactorizations = 0;
};

/// Assemble the MNA system at the context's iterate and solve it once.  A
/// linear circuit whose key matches the kept factors stamps only the
/// right-hand side and solves with them; any other call restamps the
/// matrix and refactors, reusing the workspace's symbolic information when
/// the pattern allows.  Returns the raw solution of A x = z (not an
/// increment).
std::vector<double> assemble_and_solve(const Circuit& ckt,
                                       const StampContext& ctx, double gshunt,
                                       SolveWorkspace& ws);

/// Newton-Raphson on the circuit equations with the given base context
/// (analysis type, time, dt, gmin, source_scale are taken from `ctx`).
/// `x` holds the initial guess on entry and the solution on success.
NewtonOutcome newton_solve(const Circuit& ckt, StampContext ctx,
                           const NewtonSettings& st, int n_node_unknowns,
                           std::vector<double>& x, SolveWorkspace& ws);

}  // namespace rlc::spice::detail
