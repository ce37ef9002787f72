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

/// What fixes the matrix of the linear devices (see Device::nonlinear()).
struct FactorKey {
  Analysis analysis = Analysis::kDc;
  Integrator method = Integrator::kTrapezoidal;
  double dt = 0.0;
  double gdiag = 0.0;  ///< gshunt + gmin on every node unknown
  bool operator==(const FactorKey&) const = default;
};

/// The bordered (Schur-complement) form of a transient Newton iteration.
/// The unknowns split into a border B, every row and column a nonlinear
/// device stamps plus any unknown whose row or column has no entry in the
/// rest, and the interior I, which only linear devices touch.  Per key the
/// constant interior block is factored once, with W = A_II^-1 A_IB and the
/// dense base S0 = A_BB,lin - A_BI W; per step the linear right-hand side
/// gives y_I = A_II^-1 z_I and r_B = z_B - A_BI y_I; per Newton iteration
/// the nonlinear devices stamp into a copy of S0 and r_B, a dense |B| x |B|
/// solve gives x_B, and x_I = y_I - W x_B.
struct BorderedSolve {
  std::optional<FactorKey> key;  ///< the key the members below were set for
  bool usable = false;  ///< false: the full path serves this key
  std::vector<const Device*> linear, nonlinear;
  std::vector<int> border, interior;  ///< unknown indices, ascending
  std::vector<int> pos;  ///< unknown -> its index within its own block
  std::vector<char> in_border;
  std::unique_ptr<rlc::linalg::SparseLU> lu;  ///< factors A_II
  std::vector<rlc::linalg::Triplet> a_bi;  ///< (border pos, interior pos, value)
  std::vector<double> w;   ///< W, column-major |I| x |B|
  std::vector<int> w_lo, w_hi;  ///< nonzero row range of each column of W
  std::vector<double> s0;  ///< S0, row-major |B| x |B|
  std::vector<double> y, r;  ///< y_I and r_B of the current step
  // Scratch reused across iterations, so an iteration allocates nothing.
  std::vector<rlc::linalg::Triplet> triplets;
  std::vector<double> rhs, z, s, xb, xi;
};

/// Reusable state across Newton iterations and time steps of one analysis:
/// the cached triplet-to-CSC mapping and the last LU factors of the full
/// path, and the bordered solve.  A linear circuit reuses the full path's
/// factors as they are while `key` holds (set only while `lu` factors the
/// matrix of that key); otherwise the factors serve numeric-only
/// refactorization, keyed on the MNA sparsity pattern, which is stable
/// within an analysis.
struct SolveWorkspace {
  rlc::linalg::TripletCompressor compressor;
  std::unique_ptr<rlc::linalg::SparseLU> lu;
  std::optional<FactorKey> key;
  std::vector<rlc::linalg::Triplet> triplets;
  std::vector<double> rhs;
  std::vector<double> residual;  ///< scratch of the refactor's residual check
  BorderedSolve bordered;
  /// Fresh sparse factorizations, of the full matrix or of the bordered
  /// interior, and the full path's numeric-only ones.
  long full_factorizations = 0;
  long refactorizations = 0;
  long factor_nonzeros = 0;  ///< L + U nonzeros of the fresh ones, summed
  long border_factorizations = 0;  ///< dense LUs of the bordered system
};

/// Each assembles the MNA system at the context's iterate and solves it
/// once, returning the raw solution of A x = z (not an increment).
///
/// The full path: a linear circuit whose key matches the kept factors
/// stamps only the right-hand side and solves with them; any other call
/// restamps every device and refactors, reusing the workspace's symbolic
/// information when the pattern allows and the refactored solve passes a
/// backward-error check, and factoring afresh otherwise.
std::vector<double> solve_full(const Circuit& ckt, const StampContext& ctx,
                               double gshunt, SolveWorkspace& ws);

/// The bordered path; nullopt when it does not apply: DC analysis, an
/// empty border or interior, a border whose dense LU would cost more than
/// the full path (|B|^3 over a fixed multiple of the unknown count), or a
/// singular interior (for the whole key) or border (for this iteration).
/// The caller then takes solve_full.  `new_step` is true on the first
/// Newton iteration of a solve; false reuses the linear right-hand side of
/// the previous call, which Device::nonlinear() promises does not depend
/// on the iterate.
std::optional<std::vector<double>> solve_bordered(const Circuit& ckt,
                                                  const StampContext& ctx,
                                                  double gshunt,
                                                  SolveWorkspace& ws,
                                                  bool new_step);

/// Newton-Raphson on the circuit equations with the given base context
/// (analysis type, time, dt, gmin, source_scale are taken from `ctx`).
/// `x` holds the initial guess on entry and the solution on success.  Each
/// iteration takes solve_bordered where it applies, solve_full otherwise.
NewtonOutcome newton_solve(const Circuit& ckt, StampContext ctx,
                           const NewtonSettings& st, int n_node_unknowns,
                           std::vector<double>& x, SolveWorkspace& ws);

}  // namespace rlc::spice::detail
