#include "newton_detail.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rlc/obs/trace.hpp"

namespace rlc::spice::detail {

namespace {

using rlc::linalg::Triplet;

/// The one limit on the bordered solve.  Its dense border LU costs about
/// |B|^3 / 3 per Newton iteration; the full path costs at least a constant
/// per unknown (a restamp, a compression and a sparse LU that at best barely
/// fills in).  A border with |B|^3 over this many times the unknown count
/// takes the full path.  On inverter chains, whose full-path LU does not
/// fill in, the bordered iteration stopped being the cheaper one between
/// |B|^3 / n = 186 and 308; on rings, whose full-path LU fills in, it stays
/// cheaper well past that, at every border share measured (EXPERIMENTS.md,
/// "Border size limit").
constexpr double kMaxBorderCubePerUnknown = 250.0;

/// Gaussian elimination with partial pivoting of the row-major n x n matrix
/// `a`, applied to `b` as it goes, then back substitution: `b` becomes the
/// solution of a x = b.  In place and allocation-free.  Returns false on a
/// zero or non-finite pivot.
bool dense_solve(std::vector<double>& a, std::vector<double>& b, int n) {
  for (int k = 0; k < n; ++k) {
    int piv = k;
    double best = std::abs(a[k * n + k]);
    for (int i = k + 1; i < n; ++i) {
      const double m = std::abs(a[i * n + k]);
      if (m > best) {
        best = m;
        piv = i;
      }
    }
    if (!(best > 0.0) || !std::isfinite(best)) return false;
    if (piv != k) {
      // Columns left of k are eliminated and never read again.
      std::swap_ranges(a.begin() + k * n + k, a.begin() + (k + 1) * n,
                       a.begin() + piv * n + k);
      std::swap(b[k], b[piv]);
    }
    const double* rk = &a[k * n];
    for (int i = k + 1; i < n; ++i) {
      double* ri = &a[i * n];
      const double m = ri[k] / rk[k];
      if (m == 0.0) continue;
      for (int j = k + 1; j < n; ++j) ri[j] -= m * rk[j];
      b[i] -= m * b[k];
    }
  }
  for (int i = n - 1; i >= 0; --i) {
    const double* ri = &a[i * n];
    double acc = b[i];
    for (int j = i + 1; j < n; ++j) acc -= ri[j] * b[j];
    b[i] = acc / ri[i];
  }
  return true;
}

/// Partition the unknowns, factor the interior block and precompute W and
/// S0 for `key`.  Leaves `usable` false when the partition is degenerate,
/// the border too large, or the interior singular.
void setup_bordered(const Circuit& ckt, const StampContext& ctx,
                    const FactorKey& key, SolveWorkspace& ws) {
  RLC_TRACE_SPAN("spice_border_setup");
  BorderedSolve& bs = ws.bordered;
  bs.key = key;
  bs.usable = false;
  const int n = ckt.unknown_count();
  bs.linear.clear();
  bs.nonlinear.clear();
  for (const auto& dev : ckt.devices()) {
    (dev->nonlinear() ? bs.nonlinear : bs.linear).push_back(dev.get());
  }

  // The border starts as every row and column a nonlinear device stamps,
  // the same at any iterate (Device::nonlinear()).
  std::vector<Triplet> entries;
  std::vector<double> rhs(static_cast<std::size_t>(n), 0.0);
  Stamper st(entries, rhs);
  for (const Device* dev : bs.nonlinear) dev->stamp(ctx, st);
  bs.in_border.assign(static_cast<std::size_t>(n), 0);
  for (const Triplet& t : entries) {
    bs.in_border[t.row] = bs.in_border[t.col] = 1;
  }
  // From here on `entries` holds the linear devices' matrix of this key,
  // with gshunt + gmin on every node.
  entries.clear();
  for (const Device* dev : bs.linear) dev->stamp(ctx, st);
  if (key.gdiag > 0.0) {
    const int n_nodes = ckt.node_count() - 1;
    for (int i = 0; i < n_nodes; ++i) entries.push_back({i, i, key.gdiag});
  }
  // An unknown whose row or column has no entry inside the interior block
  // would leave A_II singular (the supply's branch current is one): move it
  // to the border, until none is left.
  std::vector<int> row_hits(static_cast<std::size_t>(n));
  std::vector<int> col_hits(row_hits.size());
  for (bool moved = true; moved;) {
    std::fill(row_hits.begin(), row_hits.end(), 0);
    std::fill(col_hits.begin(), col_hits.end(), 0);
    for (const Triplet& t : entries) {
      if (!bs.in_border[t.row] && !bs.in_border[t.col]) {
        ++row_hits[t.row];
        ++col_hits[t.col];
      }
    }
    moved = false;
    for (int u = 0; u < n; ++u) {
      if (!bs.in_border[u] && (row_hits[u] == 0 || col_hits[u] == 0)) {
        bs.in_border[u] = 1;
        moved = true;
      }
    }
  }
  bs.border.clear();
  bs.interior.clear();
  bs.pos.assign(static_cast<std::size_t>(n), 0);
  for (int u = 0; u < n; ++u) {
    auto& block = bs.in_border[u] ? bs.border : bs.interior;
    bs.pos[u] = static_cast<int>(block.size());
    block.push_back(u);
  }
  const int nb = static_cast<int>(bs.border.size());
  const int ni = static_cast<int>(bs.interior.size());
  if (nb == 0 || ni == 0 ||
      static_cast<double>(nb) * nb * nb > kMaxBorderCubePerUnknown * n) {
    return;
  }

  // Split the linear matrix into its blocks; A_IB lands in W's columns.
  std::vector<Triplet> a_ii;
  bs.a_bi.clear();
  bs.w.assign(static_cast<std::size_t>(ni) * nb, 0.0);
  bs.s0.assign(static_cast<std::size_t>(nb) * nb, 0.0);
  for (const Triplet& t : entries) {
    const int r = bs.pos[t.row], c = bs.pos[t.col];
    if (!bs.in_border[t.row]) {
      if (!bs.in_border[t.col]) {
        a_ii.push_back({r, c, t.value});
      } else {
        bs.w[static_cast<std::size_t>(c) * ni + r] += t.value;
      }
    } else if (!bs.in_border[t.col]) {
      bs.a_bi.push_back({r, c, t.value});
    } else {
      bs.s0[static_cast<std::size_t>(r) * nb + c] += t.value;
    }
  }
  // Factor A_II afresh, with fresh pivoting: the factors serve the whole
  // key, so digits lost to another key's pivot order would stay in W, S0
  // and every y_I.
  try {
    bs.lu = std::make_unique<rlc::linalg::SparseLU>(
        rlc::linalg::CscMatrix::from_triplets(ni, ni, a_ii));
  } catch (const std::runtime_error&) {
    bs.lu.reset();
    return;
  }
  ++ws.full_factorizations;
  // W = A_II^-1 A_IB, one solve per border column, trimmed to the rows it
  // reaches (the x_I update skips the rest: 14% more mna_ring ops/s,
  // EXPERIMENTS.md); then S0 = A_BB,lin - A_BI W.
  std::vector<double> col;
  bs.w_lo.assign(static_cast<std::size_t>(nb), 0);
  bs.w_hi.assign(static_cast<std::size_t>(nb), 0);
  for (int j = 0; j < nb; ++j) {
    const auto first = bs.w.begin() + static_cast<std::ptrdiff_t>(j) * ni;
    col.assign(first, first + ni);
    bs.lu->solve(col, bs.xi);
    std::copy(bs.xi.begin(), bs.xi.end(), first);
    int lo = 0, hi = ni;
    while (lo < hi && first[lo] == 0.0) ++lo;
    while (hi > lo && first[hi - 1] == 0.0) --hi;
    bs.w_lo[j] = lo;
    bs.w_hi[j] = hi;
  }
  for (const Triplet& t : bs.a_bi) {
    double* s_row = &bs.s0[static_cast<std::size_t>(t.row) * nb];
    for (int j = 0; j < nb; ++j) {
      s_row[j] -= t.value * bs.w[static_cast<std::size_t>(j) * ni + t.col];
    }
  }
  bs.usable = true;
}

}  // namespace

std::vector<double> solve_full(const Circuit& ckt, const StampContext& ctx,
                               double gshunt, SolveWorkspace& ws) {
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

std::optional<std::vector<double>> solve_bordered(const Circuit& ckt,
                                                  const StampContext& ctx,
                                                  double gshunt,
                                                  SolveWorkspace& ws,
                                                  bool new_step) {
  if (ctx.analysis != Analysis::kTransient || !ckt.has_nonlinear()) {
    return std::nullopt;
  }
  BorderedSolve& bs = ws.bordered;
  const FactorKey key{ctx.analysis, ctx.method, ctx.dt, gshunt + ctx.gmin};
  if (bs.key != key) {
    setup_bordered(ckt, ctx, key, ws);
    new_step = true;
  }
  if (!bs.usable) return std::nullopt;
  const int nb = static_cast<int>(bs.border.size());
  const int ni = static_cast<int>(bs.interior.size());

  // Once per step: the linear right-hand side, y_I and r_B.
  if (new_step) {
    bs.rhs.assign(static_cast<std::size_t>(ckt.unknown_count()), 0.0);
    Stamper st(bs.triplets, bs.rhs, false);
    for (const Device* dev : bs.linear) dev->stamp(ctx, st);
    bs.z.resize(static_cast<std::size_t>(ni));
    for (int k = 0; k < ni; ++k) bs.z[k] = bs.rhs[bs.interior[k]];
    bs.lu->solve(bs.z, bs.y);
    bs.r.resize(static_cast<std::size_t>(nb));
    for (int k = 0; k < nb; ++k) bs.r[k] = bs.rhs[bs.border[k]];
    for (const Triplet& t : bs.a_bi) bs.r[t.row] -= t.value * bs.y[t.col];
  }

  // Every iteration: the nonlinear devices stamp onto copies of S0 and r_B
  // (their rows are border rows, so only those of `rhs` are cleared).
  bs.s.assign(bs.s0.begin(), bs.s0.end());
  bs.xb.assign(bs.r.begin(), bs.r.end());
  for (const int u : bs.border) bs.rhs[u] = 0.0;
  bs.triplets.clear();
  Stamper st(bs.triplets, bs.rhs);
  for (const Device* dev : bs.nonlinear) dev->stamp(ctx, st);
  for (const Triplet& t : bs.triplets) {
    // A device off its promised pattern gets the full path, not a wrong x.
    if (!bs.in_border[t.row] || !bs.in_border[t.col]) return std::nullopt;
    bs.s[static_cast<std::size_t>(bs.pos[t.row]) * nb + bs.pos[t.col]] +=
        t.value;
  }
  for (int k = 0; k < nb; ++k) bs.xb[k] += bs.rhs[bs.border[k]];
  ++ws.border_factorizations;
  if (!dense_solve(bs.s, bs.xb, nb)) return std::nullopt;
  // x_I = y_I - W x_B, contiguous, then both blocks scatter into x.
  bs.xi.assign(bs.y.begin(), bs.y.end());
  for (int j = 0; j < nb; ++j) {
    const double xj = bs.xb[j];
    const double* wj = &bs.w[static_cast<std::size_t>(j) * ni];
    for (int i = bs.w_lo[j]; i < bs.w_hi[j]; ++i) bs.xi[i] -= wj[i] * xj;
  }
  std::vector<double> x(static_cast<std::size_t>(ckt.unknown_count()));
  for (int k = 0; k < ni; ++k) x[bs.interior[k]] = bs.xi[k];
  for (int k = 0; k < nb; ++k) x[bs.border[k]] = bs.xb[k];
  return x;
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
    if (auto xb = solve_bordered(ckt, ctx, st.gshunt, ws, it == 0)) {
      x_new = std::move(*xb);
    } else {
      x_new = solve_full(ckt, ctx, st.gshunt, ws);
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

}  // namespace rlc::spice::detail
