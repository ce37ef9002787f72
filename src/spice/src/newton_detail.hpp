#pragma once

/// Internal shared Newton machinery for the DC and transient analyses.

#include <memory>
#include <optional>
#include <vector>

#include "companion_table.hpp"
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
/// dense base S0 = A_BB,lin - A_BI W; per step the linear right-hand side,
/// filled from the companion table, gives y_I = A_II^-1 z_I and r_B = z_B -
/// A_BI y_I; per Newton iteration the nonlinear devices stamp into a copy
/// of S0 and r_B and a dense |B| x |B| solve gives x_B.  Nothing in the
/// next iteration reads the interior (a nonlinear device reads only the
/// unknowns it stamps, the table's right-hand side ignores the iterate),
/// so newton_solve forms x_I = y_I - W x_B only when the border has
/// converged, when a bound from the row sums of |W| cannot rule out a
/// clamped interior update, and before the full path takes an iteration.
struct BorderedSolve {
  std::optional<FactorKey> key;  ///< the key the members below were set for
  bool usable = false;  ///< false: the full path serves this key
  std::vector<const Device*> linear, nonlinear;
  std::vector<int> border, interior;  ///< unknown indices, ascending
  int interior_nodes = 0;  ///< node voltages in `interior`, its first entries
  std::vector<int> pos;  ///< unknown -> its index within its own block
  std::vector<char> in_border;
  std::unique_ptr<rlc::linalg::SparseLU> lu;  ///< factors A_II
  std::vector<rlc::linalg::Triplet> a_bi;  ///< (border pos, interior pos, value)
  std::vector<double> w;   ///< W, column-major |I| x |B|
  std::vector<int> w_lo, w_hi;  ///< nonzero row range of each column of W
  /// Row sums of |W| (sum_j |W_ij| bounds |(W d)_i| by max_j |d_j|), their
  /// largest over the interior node rows and over every row.
  std::vector<double> w_row_sum;
  double w_node_row_sum = 0.0, w_max_row_sum = 0.0;
  std::vector<double> s0;  ///< S0, row-major |B| x |B|
  std::vector<double> y, r;  ///< y_I and r_B of the current step
  double y_max = 0.0;  ///< max |y_I|, infinite when y_I is not finite
  /// The last solution newton_solve converged to on this key, whose
  /// interior it formed from y_conv: a next step that starts from it
  /// bounds its first interior update without forming the interior.
  bool have_conv = false;
  std::vector<double> x_conv, y_conv;
  /// The border solve the iterate's interior comes from while newton_solve
  /// leaves it unformed: the full-vector loop's interior is y_I - W xb_gen.
  std::vector<double> xb_gen;
  // Scratch reused across iterations, so an iteration allocates nothing.
  std::vector<rlc::linalg::Triplet> triplets;
  std::vector<double> rhs, z, s, xb, xi, xi_prev;

  /// xi = y_I - W xb, in one fixed order of operations.
  void form_interior(const std::vector<double>& xb_in,
                     std::vector<double>& xi_out) const;
};

/// Reusable state across Newton iterations and time steps of one analysis:
/// the linear devices' right-hand side and history, the cached
/// triplet-to-CSC mapping and the last LU factors of the full path, and the
/// bordered solve.  A linear circuit reuses the full path's factors as they
/// are while `key` holds (set only while `lu` factors the matrix of that
/// key); otherwise the factors serve numeric-only refactorization, keyed on
/// the MNA sparsity pattern, which is stable within an analysis.
struct SolveWorkspace {
  /// Built from the circuit (and, for a transient, started from its t = 0
  /// state) before the first solve; the solves throw std::logic_error
  /// otherwise.  The caller commits each accepted step to it.
  CompanionTable companions;
  rlc::linalg::TripletCompressor compressor;
  std::unique_ptr<rlc::linalg::SparseLU> lu;
  std::optional<FactorKey> key;
  std::vector<rlc::linalg::Triplet> triplets;
  std::vector<double> rhs;
  std::vector<double> residual;  ///< scratch of the refactor's residual check
  std::vector<double> x;  ///< the full path's solution
  BorderedSolve bordered;
  /// Fresh sparse factorizations, of the full matrix or of the bordered
  /// interior, and the full path's numeric-only ones.
  long full_factorizations = 0;
  long refactorizations = 0;
  long factor_nonzeros = 0;  ///< L + U nonzeros of the fresh ones, summed
  long border_factorizations = 0;  ///< dense LUs of the bordered system
  long interior_updates = 0;  ///< x_I = y_I - W x_B formed by newton_solve
  /// How newton_solve's interior tests went once the border had passed:
  /// settled by the row-sum bound, passed or failed on the exact difference;
  /// and its bordered iterations that clamped an interior node update.
  long interior_bound_passes = 0, interior_exact_passes = 0,
       interior_fails = 0, interior_clamps = 0;
};

/// Each assembles the MNA system at the context's iterate and solves it
/// once (the raw solution of A x = z, not an increment), into workspace
/// storage, so neither allocates once the workspace has grown.
///
/// The full path: a linear circuit whose key matches the kept factors
/// fills the right-hand side from the companion table and solves with
/// them; any other call restamps every device, adds each record of the
/// table at its device's place between the nonlinear devices' stamps, and
/// refactors, reusing the workspace's symbolic information when the pattern
/// allows and the refactored solve passes a backward-error check, and
/// factoring afresh otherwise.  Returns ws.x.
std::vector<double>& solve_full(const Circuit& ckt, const StampContext& ctx,
                                double gshunt, SolveWorkspace& ws);

/// The bordered path: solves for the border alone, into ws.bordered.xb
/// (BorderedSolve::form_interior gives the interior).  False when it does
/// not apply: DC analysis, an empty border or interior, a border whose
/// dense LU would cost more than the full path (|B|^3 over a fixed multiple
/// of the unknown count), or a singular interior (for the whole key) or
/// border (for this iteration).  The caller then takes solve_full.
/// `new_step` is true on the first Newton iteration of a solve; false
/// reuses the linear right-hand side of the previous call, which the
/// companion table fills without reading the iterate.
bool solve_border(const Circuit& ckt, const StampContext& ctx, double gshunt,
                  SolveWorkspace& ws, bool new_step);

/// Newton-Raphson on the circuit equations with the given base context
/// (analysis type, time, dt, gmin, source_scale are taken from `ctx`).
/// `x` holds the initial guess on entry and the solution on success; on
/// failure, the last iterate.  Each iteration takes solve_border where it
/// applies, solve_full otherwise.  A full-path iteration tests the update
/// of every unknown against reltol and its abstol and clamps node updates
/// to max_voltage_step.  A bordered iteration does the same on the border
/// and keeps the interior unformed: it forms x_I once the border passes,
/// and passes the interior on the row-sum bound of its update (at most
/// half the tolerance) or else on the exact difference from the previous
/// iterate's interior, recomputed from the border it came from.  It forms
/// and clamps the interior as the full path would whenever the bound
/// cannot rule out an interior node update above max_voltage_step, so both
/// kinds of iteration take the same decisions up to rounding ties.
NewtonOutcome newton_solve(const Circuit& ckt, StampContext ctx,
                           const NewtonSettings& st, int n_node_unknowns,
                           std::vector<double>& x, SolveWorkspace& ws);

}  // namespace rlc::spice::detail
