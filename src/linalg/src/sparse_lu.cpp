#include "rlc/linalg/sparse_lu.hpp"

#include <cmath>
#include <stdexcept>

namespace rlc::linalg {

namespace {

/// Non-recursive depth-first search over the graph of the partially built L
/// starting at node j.  Nodes are appended to xi at decreasing `top` in
/// postorder, so xi[top..n-1] read forward is a topological order for the
/// sparse triangular solve.  `pinv[i] >= 0` means row i is already pivotal
/// and corresponds to column pinv[i] of L.
int dfs(int j, const std::vector<int>& lp, const std::vector<int>& li,
        const std::vector<int>& pinv, std::vector<int>& xi, int top,
        std::vector<int>& stack, std::vector<int>& pstack,
        std::vector<char>& marked) {
  int head = 0;
  stack[0] = j;
  while (head >= 0) {
    const int node = stack[head];
    const int jnew = pinv[node];
    if (!marked[node]) {
      marked[node] = 1;
      pstack[head] = (jnew < 0) ? 0 : lp[jnew];
    }
    bool done = true;
    if (jnew >= 0) {
      const int p2 = lp[jnew + 1];
      for (int p = pstack[head]; p < p2; ++p) {
        const int child = li[p];
        if (marked[child]) continue;
        pstack[head] = p + 1;
        stack[++head] = child;
        done = false;
        break;
      }
    }
    if (done) {
      --head;
      xi[--top] = node;
    }
  }
  return top;
}

}  // namespace

SparseLU::SparseLU(const CscMatrix& A, double pivot_tol) {
  if (A.rows() != A.cols()) {
    throw std::invalid_argument("SparseLU: matrix must be square");
  }
  if (!(pivot_tol > 0.0 && pivot_tol <= 1.0)) {
    throw std::invalid_argument("SparseLU: pivot_tol must be in (0, 1]");
  }
  n_ = A.rows();
  const int n = n_;
  const auto& ap = A.col_ptr();
  const auto& ai = A.row_idx();
  const auto& ax = A.values();

  l_colptr_.assign(n + 1, 0);
  u_colptr_.assign(n + 1, 0);
  pinv_.assign(n, -1);
  pat_ptr_.assign(n + 1, 0);
  pivot_row_.assign(n, -1);

  std::vector<double> x(n, 0.0);
  std::vector<int> xi(n, 0), stack(n, 0), pstack(n, 0);
  std::vector<char> marked(n, 0);

  for (int k = 0; k < n; ++k) {
    // ---- Symbolic: reach of the pattern of A(:,k) over L. ----
    int top = n;
    for (int p = ap[k]; p < ap[k + 1]; ++p) {
      const int i = ai[p];
      if (!marked[i]) top = dfs(i, l_colptr_, l_rowidx_, pinv_, xi, top, stack, pstack, marked);
    }
    // ---- Numeric: x = L \ A(:,k) (unit lower triangular solve). ----
    for (int px = top; px < n; ++px) x[xi[px]] = 0.0;
    for (int p = ap[k]; p < ap[k + 1]; ++p) x[ai[p]] = ax[p];
    for (int px = top; px < n; ++px) {
      const int i = xi[px];
      const int I = pinv_[i];
      if (I < 0) continue;  // row not yet pivotal: contributes to L
      const double xval = x[i];
      if (xval == 0.0) continue;
      // First entry of L column I is the unit diagonal; skip it.
      for (int p = l_colptr_[I] + 1; p < l_colptr_[I + 1]; ++p) {
        x[l_rowidx_[p]] -= l_values_[p] * xval;
      }
    }
    // ---- Pivot selection: largest magnitude among non-pivotal rows,
    //      preferring the diagonal when within pivot_tol of the max. ----
    int ipiv = -1;
    double amax = -1.0;
    for (int px = top; px < n; ++px) {
      const int i = xi[px];
      if (pinv_[i] < 0) {
        const double t = std::abs(x[i]);
        if (t > amax) {
          amax = t;
          ipiv = i;
        }
      }
    }
    if (ipiv < 0 || amax <= 0.0 || !std::isfinite(amax)) {
      throw std::runtime_error("SparseLU: matrix is singular to working precision");
    }
    // Diagonal preference — only valid if row k is actually in this
    // column's pattern (marked): x[k] is stale garbage otherwise.
    if (marked[k] && pinv_[k] < 0 && std::abs(x[k]) >= pivot_tol * amax) {
      ipiv = k;
    }
    const double pivot = x[ipiv];

    // ---- Store U column k (diagonal entry last). ----
    for (int px = top; px < n; ++px) {
      const int i = xi[px];
      if (pinv_[i] >= 0) {
        u_rowidx_.push_back(pinv_[i]);
        u_values_.push_back(x[i]);
      }
    }
    u_rowidx_.push_back(k);
    u_values_.push_back(pivot);
    u_colptr_[k + 1] = static_cast<int>(u_values_.size());

    // ---- Store L column k (unit diagonal first), mark the pivot row. ----
    pinv_[ipiv] = k;
    l_rowidx_.push_back(ipiv);
    l_values_.push_back(1.0);
    for (int px = top; px < n; ++px) {
      const int i = xi[px];
      if (pinv_[i] < 0) {
        l_rowidx_.push_back(i);
        l_values_.push_back(x[i] / pivot);
      }
    }
    l_colptr_[k + 1] = static_cast<int>(l_values_.size());

    // ---- Record the symbolic pattern for refactor(). ----
    pivot_row_[k] = ipiv;
    for (int px = top; px < n; ++px) pat_idx_.push_back(xi[px]);
    pat_ptr_[k + 1] = static_cast<int>(pat_idx_.size());

    // ---- Clear marks for the next column. ----
    for (int px = top; px < n; ++px) marked[xi[px]] = 0;
  }
  // Remap L's row indices into pivot coordinates so L is truly lower
  // triangular with unit diagonal at position (k, k); keep the original
  // coordinates for the numeric-only refactorization path.
  l_rowidx_orig_ = l_rowidx_;
  for (auto& r : l_rowidx_) r = pinv_[r];
}

bool SparseLU::refactor(const CscMatrix& A, double pivot_floor) {
  if (A.rows() != n_ || A.cols() != n_) {
    throw std::invalid_argument("SparseLU::refactor: size mismatch");
  }
  const auto& ap = A.col_ptr();
  const auto& ai = A.row_idx();
  const auto& ax = A.values();
  std::vector<double> x(n_, 0.0);
  std::size_t lpos = 0, upos = 0;
  for (int k = 0; k < n_; ++k) {
    // Scatter A(:,k) over the cached pattern.
    for (int p = pat_ptr_[k]; p < pat_ptr_[k + 1]; ++p) x[pat_idx_[p]] = 0.0;
    for (int p = ap[k]; p < ap[k + 1]; ++p) x[ai[p]] = ax[p];
    // Sparse triangular solve in the cached topological order.
    for (int p = pat_ptr_[k]; p < pat_ptr_[k + 1]; ++p) {
      const int i = pat_idx_[p];
      const int I = pinv_[i];
      if (I >= k) continue;  // not pivotal before column k
      const double xval = x[i];
      if (xval == 0.0) continue;
      for (int q = l_colptr_[I] + 1; q < l_colptr_[I + 1]; ++q) {
        x[l_rowidx_orig_[q]] -= l_values_[q] * xval;
      }
    }
    // Pivot stability check against the column magnitude.
    const double pivot = x[pivot_row_[k]];
    double amax = 0.0;
    for (int p = pat_ptr_[k]; p < pat_ptr_[k + 1]; ++p) {
      const int i = pat_idx_[p];
      if (pinv_[i] >= k) amax = std::max(amax, std::abs(x[i]));
    }
    if (!(std::abs(pivot) > pivot_floor * amax) || pivot == 0.0 ||
        !std::isfinite(pivot)) {
      return false;
    }
    // Overwrite U column k (same order as construction; diagonal last).
    for (int p = pat_ptr_[k]; p < pat_ptr_[k + 1]; ++p) {
      const int i = pat_idx_[p];
      if (pinv_[i] < k) u_values_[upos++] = x[i];
    }
    u_values_[upos++] = pivot;
    // Overwrite L column k (unit diagonal first).
    l_values_[lpos++] = 1.0;
    for (int p = pat_ptr_[k]; p < pat_ptr_[k + 1]; ++p) {
      const int i = pat_idx_[p];
      if (pinv_[i] > k) l_values_[lpos++] = x[i] / pivot;
    }
  }
  return true;
}

std::vector<double> SparseLU::solve(const std::vector<double>& b) const {
  std::vector<double> x;
  solve(b, x);
  return x;
}

void SparseLU::solve(const std::vector<double>& b,
                     std::vector<double>& x) const {
  if (static_cast<int>(b.size()) != n_) {
    throw std::invalid_argument("SparseLU::solve: size mismatch");
  }
  x.resize(n_);
  // Row permutation: x[pinv[i]] = b[i].
  for (int i = 0; i < n_; ++i) x[pinv_[i]] = b[i];
  // Forward substitution, L unit lower triangular (diagonal stored first).
  for (int j = 0; j < n_; ++j) {
    const double xj = x[j];
    if (xj == 0.0) continue;
    for (int p = l_colptr_[j] + 1; p < l_colptr_[j + 1]; ++p) {
      x[l_rowidx_[p]] -= l_values_[p] * xj;
    }
  }
  // Back substitution, U upper triangular (diagonal stored last per column).
  for (int j = n_ - 1; j >= 0; --j) {
    const int pdiag = u_colptr_[j + 1] - 1;
    x[j] /= u_values_[pdiag];
    const double xj = x[j];
    if (xj == 0.0) continue;
    for (int p = u_colptr_[j]; p < pdiag; ++p) {
      x[u_rowidx_[p]] -= u_values_[p] * xj;
    }
  }
}

}  // namespace rlc::linalg
