#pragma once

/// \file sparse_lu.hpp
/// Left-looking (Gilbert–Peierls) sparse LU with threshold partial pivoting,
/// in the style of CSparse's cs_lu, behind a fill-reducing symbolic phase:
/// the columns are taken in a minimum-degree order of the pattern of A + Aᵀ
/// (applied symmetrically, so the preferred pivot of each column is A's
/// diagonal) and every row is scaled by a power of two near its largest
/// magnitude before pivoting, so that partial pivoting weighs each entry
/// against its own row rather than across the mixed units of MNA (siemens
/// in node rows, ±1 incidences and ohms in branch rows).  This is the
/// workhorse behind the MNA circuit solver.  Transient analysis factors a
/// linear circuit only when (integrator, dt) changes and solves with the
/// kept factors in between; a nonlinear circuit whose devices touch few
/// unknowns has its linear interior factored the same way (the bordered
/// Newton solve), and any other nonlinear circuit is refactored at every
/// Newton iteration.  The ladder circuits of this repo do fill in: in
/// natural order a coupled 2- or 3-conductor bus's LU holds 7–10× the
/// nonzeros of its matrix (3-conductor: 5,763 against 578) and a 121-stage
/// ring on 6-segment ladders 122× (868,905 against 7,142); ordered, both
/// stay under 2× (1,063 and 12,706).

#include <vector>

#include "rlc/linalg/sparse.hpp"

namespace rlc::linalg {

/// A minimum-degree elimination order of the pattern of A + Aᵀ, diagonal
/// ignored: `order[k]` is the unknown eliminated k-th.  Approximate external
/// degrees on the quotient graph, with element absorption (Davis, "Direct
/// Methods for Sparse Linear Systems", ch. 7), so its cost grows with the
/// pattern of the factors rather than with n²; dense nodes go last.
/// Deterministic.
std::vector<int> minimum_degree_order(const CscMatrix& A);

class SparseLU {
 public:
  /// Order, scale and factor A.  `pivot_tol` in (0, 1]: 1.0 = full partial
  /// pivoting, smaller values prefer the (ordered) diagonal pivot.
  /// Throws std::runtime_error if A is singular to working precision.
  explicit SparseLU(const CscMatrix& A, double pivot_tol = 1.0);

  /// Solve A x = b.
  std::vector<double> solve(const std::vector<double>& b) const;
  /// Solve A x = b into `x`, resized to size(): no allocation once `x`
  /// holds that capacity.  `x` must not alias `b`.
  void solve(const std::vector<double>& b, std::vector<double>& x) const;

  /// Numeric-only refactorization: reuse the order, the row scales, the
  /// pivot sequence and the symbolic pattern of the original factorization
  /// for a matrix with the SAME sparsity pattern but new values (each Newton
  /// iteration of a transient run).  Skips the ordering, the DFS, the pivot
  /// search and all allocation.  It repeats the original factorization's
  /// arithmetic, so the values that factorization saw give bitwise the same
  /// factors (pinned by tests/linalg).  Returns false — leaving the factors
  /// unusable — if a pivot shrinks below `pivot_floor` times its column's
  /// magnitude, in which case the caller should factor from scratch to
  /// re-pivot.  A pivot above that floor can still cost digits; the caller
  /// that needs them checks the residual of its solve.
  bool refactor(const CscMatrix& A, double pivot_floor = 1e-10);

  int size() const { return n_; }
  int l_nnz() const { return static_cast<int>(l_values_.size()); }
  int u_nnz() const { return static_cast<int>(u_values_.size()); }

 private:
  int n_ = 0;
  std::vector<int> q_;  // step k eliminates column q_[k] of A
  std::vector<double> row_scale_;  // powers of two: row i of A times row_scale_[i]
  // L (unit diagonal stored explicitly) and U (diagonal last in column), one
  // column per step.  Their row indices are pre-mapped for solve(): the
  // entry of step k' sits at q_[k'], so the triangular solves run in place
  // in the unknowns' own coordinates and end on x.
  std::vector<int> l_colptr_, l_rowidx_;
  std::vector<double> l_values_;
  std::vector<int> u_colptr_, u_rowidx_;
  std::vector<double> u_values_;
  std::vector<int> pinv_;   // row i of A is pivotal at step pinv_[i]
  std::vector<int> b_pos_;  // q_[pinv_[i]]: where solve() places b[i]
  // Cached symbolic information for refactor(): per-step reach pattern in
  // topological order (A's row indices), the chosen pivot row, and L's row
  // indices in A's row coordinates.
  std::vector<int> pat_ptr_, pat_idx_;
  std::vector<int> pivot_row_;
  std::vector<int> l_rowidx_orig_;
};

}  // namespace rlc::linalg
