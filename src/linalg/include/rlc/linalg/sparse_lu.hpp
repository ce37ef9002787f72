#pragma once

/// \file sparse_lu.hpp
/// Left-looking (Gilbert–Peierls) sparse LU with threshold partial pivoting,
/// in the style of CSparse's cs_lu.  This is the workhorse behind the MNA
/// circuit solver.  Transient analysis factors a linear circuit only when
/// (integrator, dt) changes and solves with the kept factors in between; a
/// nonlinear circuit whose devices touch few unknowns has its linear
/// interior factored the same way (the bordered Newton solve), and any
/// other nonlinear circuit is refactored at every Newton iteration.  The
/// factorization cost is proportional to the number of floating-point
/// operations actually performed (important for the ladder-structured RLC
/// circuits in this repo, which factor with almost no fill-in).

#include <vector>

#include "rlc/linalg/sparse.hpp"

namespace rlc::linalg {

class SparseLU {
 public:
  /// Factor A.  `pivot_tol` in (0, 1]: 1.0 = full partial pivoting,
  /// smaller values prefer sparsity-preserving diagonal pivots.
  /// Throws std::runtime_error if A is singular to working precision.
  explicit SparseLU(const CscMatrix& A, double pivot_tol = 1.0);

  /// Solve A x = b.
  std::vector<double> solve(const std::vector<double>& b) const;
  /// Solve A x = b into `x`, resized to size(): no allocation once `x`
  /// holds that capacity.  `x` must not alias `b`.
  void solve(const std::vector<double>& b, std::vector<double>& x) const;

  /// Numeric-only refactorization: reuse the pivot order and the symbolic
  /// pattern of the original factorization for a matrix with the SAME
  /// sparsity pattern but new values (each Newton iteration of a transient
  /// run).  Skips the DFS, the pivot search and all allocation.  It repeats
  /// the original factorization's arithmetic, so the values that factorization
  /// saw give bitwise the same factors (pinned by tests/linalg).  Returns
  /// false — leaving the factors unusable — if a pivot shrinks below
  /// `pivot_floor` times its column's magnitude, in which case the caller
  /// should factor from scratch to re-pivot.
  bool refactor(const CscMatrix& A, double pivot_floor = 1e-10);

  int size() const { return n_; }
  int l_nnz() const { return static_cast<int>(l_values_.size()); }
  int u_nnz() const { return static_cast<int>(u_values_.size()); }

 private:
  int n_ = 0;
  // L (unit diagonal stored explicitly) and U (diagonal last in column).
  std::vector<int> l_colptr_, l_rowidx_;
  std::vector<double> l_values_;
  std::vector<int> u_colptr_, u_rowidx_;
  std::vector<double> u_values_;
  std::vector<int> pinv_;  // row i of A is row pinv_[i] of PA
  // Cached symbolic information for refactor(): per-column reach pattern in
  // topological order (original row indices), the chosen pivot row, and L's
  // row indices in original coordinates.
  std::vector<int> pat_ptr_, pat_idx_;
  std::vector<int> pivot_row_;
  std::vector<int> l_rowidx_orig_;
};

}  // namespace rlc::linalg
