#include "rlc/linalg/sparse_lu.hpp"

#include <algorithm>
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

/// Power-of-two row scales: 2^-e for a row whose largest magnitude is
/// m·2^e, m in [0.5, 1), so scaling is exact and each scaled row peaks in
/// [0.5, 1).  A row without a normal nonzero keeps scale 1 (the
/// factorization then finds it singular).
std::vector<double> row_scales(const CscMatrix& A) {
  std::vector<double> rmax(static_cast<std::size_t>(A.rows()), 0.0);
  const auto& ai = A.row_idx();
  const auto& ax = A.values();
  for (std::size_t p = 0; p < ax.size(); ++p) {
    rmax[ai[p]] = std::max(rmax[ai[p]], std::abs(ax[p]));
  }
  std::vector<double> scale(rmax.size(), 1.0);
  for (std::size_t i = 0; i < rmax.size(); ++i) {
    if (std::isnormal(rmax[i])) {
      int e = 0;
      std::frexp(rmax[i], &e);
      scale[i] = std::ldexp(1.0, -e);
    }
  }
  return scale;
}

}  // namespace

std::vector<int> minimum_degree_order(const CscMatrix& A) {
  if (A.rows() != A.cols()) {
    throw std::invalid_argument("minimum_degree_order: matrix must be square");
  }
  const int n = A.rows();
  const auto& ap = A.col_ptr();
  const auto& ai = A.row_idx();

  // Pattern of A + A^T without the diagonal, duplicates removed.  Node i's
  // list lives in adj[ptr[i], ptr[i+1]): its first elen[i] entries are the
  // elements (eliminated pivots) it belongs to, the next len[i] - elen[i]
  // its variable neighbours not yet covered by an element.  Eliminating p
  // replaces either p or an absorbed element in each neighbour's list, so
  // a list never outgrows its original space.
  std::vector<int> ptr(static_cast<std::size_t>(n) + 1, 0);
  for (int j = 0; j < n; ++j) {
    for (int p = ap[j]; p < ap[j + 1]; ++p) {
      if (ai[p] != j) {
        ++ptr[ai[p] + 1];
        ++ptr[j + 1];
      }
    }
  }
  for (int i = 0; i < n; ++i) ptr[i + 1] += ptr[i];
  std::vector<int> adj(static_cast<std::size_t>(ptr[n]));
  std::vector<int> len(static_cast<std::size_t>(n), 0);
  std::vector<int> elen(len.size(), 0);
  std::vector<int> mark(len.size(), -1);
  for (int j = 0; j < n; ++j) {
    for (int p = ap[j]; p < ap[j + 1]; ++p) {
      const int i = ai[p];
      if (i == j) continue;
      adj[ptr[i] + len[i]++] = j;
      adj[ptr[j] + len[j]++] = i;
    }
  }
  for (int i = 0; i < n; ++i) {
    int kept = 0;
    for (int p = ptr[i]; p < ptr[i] + len[i]; ++p) {
      if (mark[adj[p]] != i) {
        mark[adj[p]] = i;
        adj[ptr[i] + kept++] = adj[p];
      }
    }
    len[i] = kept;
  }

  // Elements: the variables of element e are pool[estart[e], +esize[e]).
  // Every element a variable belongs to is in its list, and all of them are
  // absorbed when it is eliminated, so a live element holds live variables
  // only.  A dense node, adjacent to more than max(16, 4 sqrt(n)) others,
  // leaves the graph and is ordered last, as AMD does with dense rows: the
  // supply of a 121-stage ring (242 neighbours in 2,301 unknowns, under
  // AMD's 10 sqrt(n)) otherwise joins most elements, and rescanning it cost
  // a third of the order's time and 30% more fill.
  enum : char { kVariable, kElement, kAbsorbed, kDense };
  std::vector<char> state(len.size(), kVariable);
  const int dense_degree =
      std::max(16, static_cast<int>(4.0 * std::sqrt(static_cast<double>(n))));
  int n_dense = 0;
  for (int i = 0; i < n; ++i) {
    if (len[i] > dense_degree) {
      state[i] = kDense;
      ++n_dense;
    }
  }
  std::vector<int> pool, estart(len.size(), 0), esize(len.size(), 0);
  pool.reserve(adj.size() + static_cast<std::size_t>(n));

  // Degree buckets: doubly linked lists, newest first.  A node's degree
  // counts its non-dense neighbours.
  std::vector<int> degree(len.size(), 0), head(len.size() + 1, -1);
  for (int i = 0; i < n; ++i) {
    for (int p = ptr[i]; p < ptr[i] + len[i]; ++p) {
      degree[i] += state[adj[p]] != kDense;
    }
  }
  std::vector<int> next(len.size(), -1), prev(len.size(), -1);
  const auto insert = [&](int i) {
    const int d = degree[i];
    next[i] = head[d];
    prev[i] = -1;
    if (head[d] >= 0) prev[head[d]] = i;
    head[d] = i;
  };
  const auto remove = [&](int i) {
    if (prev[i] >= 0) {
      next[prev[i]] = next[i];
    } else {
      head[degree[i]] = next[i];
    }
    if (next[i] >= 0) prev[next[i]] = prev[i];
  };
  for (int i = n - 1; i >= 0; --i) {
    if (state[i] != kDense) insert(i);
  }

  // w[e] = |L_e \ L_p| for the elements next to the current pivot's
  // element L_p, valid while wstamp[e] is the step's stamp.
  std::vector<int> w(len.size(), 0), wstamp(len.size(), -1);
  std::vector<int> scratch;
  std::fill(mark.begin(), mark.end(), -1);
  std::vector<int> order;
  order.reserve(len.size());
  int mindeg = 0;
  const int n_sparse = n - n_dense;
  for (int k = 0; k < n_sparse; ++k) {
    while (head[mindeg] < 0) ++mindeg;
    const int piv = head[mindeg];
    remove(piv);
    order.push_back(piv);

    // The new element L_p: p's variable neighbours and the variables of
    // every element p belongs to, which it absorbs.
    mark[piv] = k;
    const int lp_start = static_cast<int>(pool.size());
    const int pb = ptr[piv];
    for (int p = pb; p < pb + len[piv]; ++p) {
      const int e = adj[p];
      if (p < pb + elen[piv]) {
        if (state[e] != kElement) continue;
        for (int q = estart[e]; q < estart[e] + esize[e]; ++q) {
          const int v = pool[q];
          if (mark[v] != k) {
            mark[v] = k;
            pool.push_back(v);
          }
        }
        state[e] = kAbsorbed;
      } else if (state[e] == kVariable && mark[e] != k) {
        mark[e] = k;
        pool.push_back(e);
      }
    }
    state[piv] = kElement;
    estart[piv] = lp_start;
    esize[piv] = static_cast<int>(pool.size()) - lp_start;
    len[piv] = elen[piv] = 0;
    const int lp_size = esize[piv];

    for (int q = lp_start; q < lp_start + lp_size; ++q) {
      const int i = pool[q];
      for (int p = ptr[i]; p < ptr[i] + elen[i]; ++p) {
        const int e = adj[p];
        if (state[e] != kElement) continue;
        if (wstamp[e] != k) {
          wstamp[e] = k;
          w[e] = esize[e];
        }
        --w[e];
      }
    }

    // Each i in L_p: drop absorbed elements (and, aggressively, those now
    // inside L_p) and the neighbours p covers, add p, and bound the degree
    // by |A_i| + |L_p \ i| + sum of |L_e \ L_p| (AMD's approximate degree).
    for (int q = lp_start; q < lp_start + lp_size; ++q) {
      const int i = pool[q];
      remove(i);
      scratch.clear();
      int ext = 0;
      for (int p = ptr[i]; p < ptr[i] + elen[i]; ++p) {
        const int e = adj[p];
        if (state[e] != kElement) continue;
        if (w[e] == 0) {
          state[e] = kAbsorbed;
          continue;
        }
        ext += w[e];
        scratch.push_back(e);
      }
      scratch.push_back(piv);
      const int n_elems = static_cast<int>(scratch.size());
      for (int p = ptr[i] + elen[i]; p < ptr[i] + len[i]; ++p) {
        const int v = adj[p];
        if (state[v] == kVariable && mark[v] != k) {
          ++ext;
          scratch.push_back(v);
        }
      }
      std::copy(scratch.begin(), scratch.end(), adj.begin() + ptr[i]);
      elen[i] = n_elems;
      len[i] = static_cast<int>(scratch.size());
      degree[i] = std::min({degree[i] + lp_size - 1, ext + lp_size - 1,
                            n_sparse - k - 1});
      insert(i);
      mindeg = std::min(mindeg, degree[i]);
    }
  }
  for (int i = 0; i < n; ++i) {
    if (state[i] == kDense) order.push_back(i);
  }
  return order;
}


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
  q_ = minimum_degree_order(A);
  row_scale_ = row_scales(A);

  l_colptr_.assign(n + 1, 0);
  u_colptr_.assign(n + 1, 0);
  pinv_.assign(n, -1);
  pat_ptr_.assign(n + 1, 0);
  pivot_row_.assign(n, -1);

  std::vector<double> x(n, 0.0);
  std::vector<int> xi(n, 0), stack(n, 0), pstack(n, 0);
  std::vector<char> marked(n, 0);

  for (int k = 0; k < n; ++k) {
    const int j = q_[k];
    // ---- Symbolic: reach of the pattern of A(:,j) over L. ----
    int top = n;
    for (int p = ap[j]; p < ap[j + 1]; ++p) {
      const int i = ai[p];
      if (!marked[i]) top = dfs(i, l_colptr_, l_rowidx_, pinv_, xi, top, stack, pstack, marked);
    }
    // ---- Numeric: x = L \ (R A)(:,j) (unit lower triangular solve). ----
    for (int px = top; px < n; ++px) x[xi[px]] = 0.0;
    for (int p = ap[j]; p < ap[j + 1]; ++p) x[ai[p]] = row_scale_[ai[p]] * ax[p];
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
    // Diagonal preference — only valid if row j is actually in this
    // column's pattern (marked): x[j] is stale garbage otherwise.
    if (marked[j] && pinv_[j] < 0 && std::abs(x[j]) >= pivot_tol * amax) {
      ipiv = j;
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
  // Keep L's row indices in A's coordinates for refactor(); map both
  // factors' row indices, and b's rows, to where solve() keeps each step.
  l_rowidx_orig_ = l_rowidx_;
  for (auto& r : l_rowidx_) r = q_[pinv_[r]];
  for (auto& r : u_rowidx_) r = q_[r];
  b_pos_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) b_pos_[i] = q_[pinv_[i]];
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
    const int j = q_[k];
    // Scatter the scaled A(:,j) over the cached pattern.
    for (int p = pat_ptr_[k]; p < pat_ptr_[k + 1]; ++p) x[pat_idx_[p]] = 0.0;
    for (int p = ap[j]; p < ap[j + 1]; ++p) x[ai[p]] = row_scale_[ai[p]] * ax[p];
    // Sparse triangular solve in the cached topological order.
    for (int p = pat_ptr_[k]; p < pat_ptr_[k + 1]; ++p) {
      const int i = pat_idx_[p];
      const int I = pinv_[i];
      if (I >= k) continue;  // not pivotal before step k
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
  // Step k's entry lives at x[q_[k]] throughout, so the back substitution
  // leaves the solution in place.  Scaled, row-permuted right-hand side:
  for (int i = 0; i < n_; ++i) x[b_pos_[i]] = row_scale_[i] * b[i];
  // Forward substitution, L unit lower triangular (diagonal stored first).
  for (int k = 0; k < n_; ++k) {
    const double xk = x[q_[k]];
    if (xk == 0.0) continue;
    for (int p = l_colptr_[k] + 1; p < l_colptr_[k + 1]; ++p) {
      x[l_rowidx_[p]] -= l_values_[p] * xk;
    }
  }
  // Back substitution, U upper triangular (diagonal stored last per column).
  for (int k = n_ - 1; k >= 0; --k) {
    const int pdiag = u_colptr_[k + 1] - 1;
    const double xk = x[q_[k]] /= u_values_[pdiag];
    if (xk == 0.0) continue;
    for (int p = u_colptr_[k]; p < pdiag; ++p) {
      x[u_rowidx_[p]] -= u_values_[p] * xk;
    }
  }
}

}  // namespace rlc::linalg
