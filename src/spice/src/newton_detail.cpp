#include "newton_detail.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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

/// The largest scaled backward error a refactored full-path solve may
/// have; above it the matrix is factored afresh.  Fresh factorizations of
/// the benchmark rings' Newton iterates read at most 2.8e-16 and refactors
/// that keep their digits 5.2e-16; the three of 714 refactors above 4 ulps
/// (1.5e-15 to 1.1e-11) sat 1.3e-13 to 5e-10 off the fresh answer.
constexpr double kMaxRefactorBackwardError =
    4.0 * std::numeric_limits<double>::epsilon();

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
  bs.have_conv = false;
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
  bs.interior_nodes = static_cast<int>(
      std::lower_bound(bs.interior.begin(), bs.interior.end(),
                       ckt.node_count() - 1) -
      bs.interior.begin());
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
  ws.factor_nonzeros += bs.lu->l_nnz() + bs.lu->u_nnz();
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
  bs.w_row_sum.assign(static_cast<std::size_t>(ni), 0.0);
  for (int j = 0; j < nb; ++j) {
    const double* wj = &bs.w[static_cast<std::size_t>(j) * ni];
    for (int i = bs.w_lo[j]; i < bs.w_hi[j]; ++i) {
      bs.w_row_sum[i] += std::abs(wj[i]);
    }
  }
  const auto node_rows_end = bs.w_row_sum.begin() + bs.interior_nodes;
  bs.w_node_row_sum =
      bs.interior_nodes > 0
          ? *std::max_element(bs.w_row_sum.begin(), node_rows_end)
          : 0.0;
  bs.w_max_row_sum =
      *std::max_element(bs.w_row_sum.begin(), bs.w_row_sum.end());
  bs.usable = true;
}

/// Normwise backward error of x for A x = b with every row scaled by its
/// largest magnitude: max_i |b - A x|_i / m_i over max_i (|A| |x| + |b|)_i
/// / m_i, where m_i is row i's largest |a_ij|.  A backward-stable solve
/// reads a few ulps here; NaN when A x and b are both zero.  `scratch`
/// holds the three row sums, so a call allocates nothing once it has grown.
double scaled_backward_error(const rlc::linalg::CscMatrix& A,
                             const std::vector<double>& b,
                             const std::vector<double>& x,
                             std::vector<double>& scratch) {
  const std::size_t n = b.size();
  scratch.assign(3 * n, 0.0);
  double* r = scratch.data();  // b - A x
  double* s = r + n;           // |A| |x| + |b|
  double* m = s + n;           // max_j |a_ij|
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = b[i];
    s[i] = std::abs(b[i]);
  }
  const auto& ap = A.col_ptr();
  const auto& ai = A.row_idx();
  const auto& ax = A.values();
  for (int j = 0; j < A.cols(); ++j) {
    for (int p = ap[j]; p < ap[j + 1]; ++p) {
      const double t = ax[p] * x[j];
      r[ai[p]] -= t;
      s[ai[p]] += std::abs(t);
      m[ai[p]] = std::max(m[ai[p]], std::abs(ax[p]));
    }
  }
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double inv = 1.0 / m[i];
    num = std::max(num, std::abs(r[i]) * inv);
    den = std::max(den, s[i] * inv);
  }
  return num / den;
}

/// Throws unless ws.companions was built for ckt.
void check_companions(const Circuit& ckt, const SolveWorkspace& ws) {
  if (!ws.companions.built_for(ckt)) {
    throw std::logic_error(
        "spice: the workspace's companion table was not built for this "
        "circuit");
  }
}

}  // namespace

void BorderedSolve::form_interior(const std::vector<double>& xb_in,
                                  std::vector<double>& xi_out) const {
  const int ni = static_cast<int>(interior.size());
  xi_out.assign(y.begin(), y.end());
  for (std::size_t j = 0; j < border.size(); ++j) {
    const double xj = xb_in[j];
    const double* wj = &w[j * static_cast<std::size_t>(ni)];
    for (int i = w_lo[j]; i < w_hi[j]; ++i) xi_out[i] -= wj[i] * xj;
  }
}

std::vector<double>& solve_full(const Circuit& ckt, const StampContext& ctx,
                                double gshunt, SolveWorkspace& ws) {
  check_companions(ckt, ws);
  const int n = ckt.unknown_count();
  // Robustness shunt on every node voltage unknown (not branch rows), plus
  // the DC gmin convergence aid.
  const double gdiag = gshunt + ctx.gmin;
  const FactorKey key{ctx.analysis, ctx.method, ctx.dt, gdiag};
  ws.rhs.assign(n, 0.0);
  // A linear circuit under the kept factors' key has their matrix, bit for
  // bit: only the sources and the companion history in the RHS move.
  if (!ckt.has_nonlinear() && ws.key == key) {
    ws.companions.fill(ctx, ws.rhs);
    ws.lu->solve(ws.rhs, ws.x);
    return ws.x;
  }
  ws.key.reset();
  ws.triplets.clear();
  Stamper st(ws.triplets, ws.rhs);
  // The table's records enter z at their devices' places, between the
  // nonlinear devices' stamps, so every row sums in device order.
  const auto& devices = ckt.devices();
  std::size_t next = 0;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    if (devices[i]->nonlinear()) {
      next = ws.companions.fill_until(ctx, ws.rhs, next, i);
    }
    devices[i]->stamp(ctx, st);
  }
  ws.companions.fill_until(ctx, ws.rhs, next, devices.size());
  if (gdiag > 0.0) {
    const int n_nodes = ckt.node_count() - 1;
    for (int i = 0; i < n_nodes; ++i) ws.triplets.push_back({i, i, gdiag});
  }
  const auto& A = ws.compressor.compress(n, n, ws.triplets);
  // Numeric-only refactorization while the pattern holds, the cached pivot
  // order stays stable and the solve keeps its digits, which a stale pivot
  // order can cost even above refactor()'s pivot floor; fall back to a
  // fresh factorization (with fresh pivoting) otherwise.  A refactor of
  // unchanged values repeats the fresh factors bit for bit, so either
  // branch then gives the same x.
  if (ws.lu != nullptr && ws.compressor.reused() && ws.lu->size() == n &&
      ws.lu->refactor(A)) {
    ws.lu->solve(ws.rhs, ws.x);
    if (scaled_backward_error(A, ws.rhs, ws.x, ws.residual) <=
        kMaxRefactorBackwardError) {
      ++ws.refactorizations;
      ws.key = key;
      return ws.x;
    }
  }
  ws.lu = std::make_unique<rlc::linalg::SparseLU>(A);
  ++ws.full_factorizations;
  ws.factor_nonzeros += ws.lu->l_nnz() + ws.lu->u_nnz();
  ws.key = key;
  ws.lu->solve(ws.rhs, ws.x);
  return ws.x;
}

bool solve_border(const Circuit& ckt, const StampContext& ctx, double gshunt,
                  SolveWorkspace& ws, bool new_step) {
  if (ctx.analysis != Analysis::kTransient || !ckt.has_nonlinear()) {
    return false;
  }
  check_companions(ckt, ws);
  BorderedSolve& bs = ws.bordered;
  const FactorKey key{ctx.analysis, ctx.method, ctx.dt, gshunt + ctx.gmin};
  if (bs.key != key) {
    setup_bordered(ckt, ctx, key, ws);
    new_step = true;
  }
  if (!bs.usable) return false;
  const int nb = static_cast<int>(bs.border.size());
  const int ni = static_cast<int>(bs.interior.size());

  // Once per step: the linear right-hand side, y_I and r_B.
  if (new_step) {
    bs.rhs.assign(static_cast<std::size_t>(ckt.unknown_count()), 0.0);
    ws.companions.fill(ctx, bs.rhs);
    bs.z.resize(static_cast<std::size_t>(ni));
    for (int k = 0; k < ni; ++k) bs.z[k] = bs.rhs[bs.interior[k]];
    bs.lu->solve(bs.z, bs.y);
    bs.y_max = 0.0;
    bool finite = true;
    for (const double v : bs.y) {
      finite = finite && std::isfinite(v);
      bs.y_max = std::max(bs.y_max, std::abs(v));
    }
    if (!finite) bs.y_max = std::numeric_limits<double>::infinity();
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
    if (!bs.in_border[t.row] || !bs.in_border[t.col]) return false;
    bs.s[static_cast<std::size_t>(bs.pos[t.row]) * nb + bs.pos[t.col]] +=
        t.value;
  }
  for (int k = 0; k < nb; ++k) bs.xb[k] += bs.rhs[bs.border[k]];
  ++ws.border_factorizations;
  return dense_solve(bs.s, bs.xb, nb);
}

namespace {

enum class Outcome { kContinue, kConverged, kDiverged };

/// The update x_new - x of unknown `u` passes the convergence test.
bool within_tolerance(double x_new, double x, bool is_node,
                      const NewtonSettings& st) {
  const double abstol = is_node ? st.abstol_v : st.abstol_i;
  return !(std::abs(x_new - x) > abstol + st.reltol * std::abs(x_new));
}

/// x += the update to x_new, node voltages clamped to max_voltage_step.
void damped_update(double x_new, double& x, bool is_node,
                   const NewtonSettings& st) {
  double delta = x_new - x;
  if (is_node) {
    delta = std::clamp(delta, -st.max_voltage_step, st.max_voltage_step);
  }
  x += delta;
}

/// One iteration on the full path: every unknown is tested and updated.
Outcome full_iteration(const Circuit& ckt, const StampContext& ctx,
                       const NewtonSettings& st, int n_node_unknowns,
                       std::vector<double>& x, SolveWorkspace& ws) {
  std::vector<double>& x_new = solve_full(ckt, ctx, st.gshunt, ws);
  for (const double v : x_new) {
    if (!std::isfinite(v)) return Outcome::kDiverged;
  }
  if (!ckt.has_nonlinear()) {
    // Linear system: one solve is exact.
    x.swap(x_new);
    return Outcome::kConverged;
  }
  bool converged = true;
  const int n = static_cast<int>(x.size());
  for (int i = 0; i < n; ++i) {
    converged = within_tolerance(x_new[i], x[i], i < n_node_unknowns, st) &&
                converged;
  }
  if (converged) {
    x.swap(x_new);
    return Outcome::kConverged;
  }
  for (int i = 0; i < n; ++i) {
    damped_update(x_new[i], x[i], i < n_node_unknowns, st);
  }
  return Outcome::kContinue;
}

/// The bordered Newton iteration on x_B alone.  `x` always holds the
/// iterate's border; its interior too while `materialized`, and otherwise
/// the full-vector loop's interior is y_I - W xb_gen, up to the rounding
/// of its update x_I + (x_I,new - x_I).
class BorderLoop {
 public:
  BorderLoop(const NewtonSettings& st, int n_node_unknowns,
             std::vector<double>& x, SolveWorkspace& ws)
      : st_(st), n_nodes_(n_node_unknowns), x_(x), ws_(ws),
        bs_(ws.bordered) {}

  /// One iteration on the border ws.bordered.xb just solved for;
  /// `first` marks the first iteration of the solve.
  Outcome iterate(bool first) {
    const std::vector<double>& xb = bs_.xb;
    const int nb = static_cast<int>(xb.size());
    formed_ = false;
    have_prev_ = false;
    double xb_max = 0.0;
    for (const double v : xb) {
      if (!std::isfinite(v)) return Outcome::kDiverged;
      xb_max = std::max(xb_max, std::abs(v));
    }
    // Below this bound no partial sum of y_I - W x_B can overflow.
    if (!(bs_.y_max + bs_.w_max_row_sum * xb_max <=
          0.5 * std::numeric_limits<double>::max())) {
      form();
      for (const double v : bs_.xi) {
        if (!std::isfinite(v)) return Outcome::kDiverged;
      }
    }
    bool converged = true;
    for (int k = 0; k < nb; ++k) {
      const int u = bs_.border[k];
      converged = within_tolerance(xb[k], x_[u], u < n_nodes_, st_) &&
                  converged;
    }
    if (converged && interior_converged()) {
      const int ni = static_cast<int>(bs_.interior.size());
      for (int k = 0; k < ni; ++k) x_[bs_.interior[k]] = bs_.xi[k];
      for (int k = 0; k < nb; ++k) x_[bs_.border[k]] = xb[k];
      materialized_ = true;
      bs_.x_conv.assign(x_.begin(), x_.end());
      bs_.y_conv.assign(bs_.y.begin(), bs_.y.end());
      bs_.have_conv = true;
      return Outcome::kConverged;
    }
    update_interior(first);
    for (int k = 0; k < nb; ++k) {
      const int u = bs_.border[k];
      damped_update(xb[k], x_[u], u < n_nodes_, st_);
    }
    return Outcome::kContinue;
  }

  /// Puts the full-vector loop's interior into x.
  void materialize() {
    if (materialized_) return;
    bs_.form_interior(bs_.xb_gen, bs_.xi_prev);
    ++ws_.interior_updates;
    const int ni = static_cast<int>(bs_.interior.size());
    for (int k = 0; k < ni; ++k) x_[bs_.interior[k]] = bs_.xi_prev[k];
    materialized_ = true;
  }

 private:
  bool is_node(int k) const { return k < bs_.interior_nodes; }

  /// x_I = y_I - W x_B of this iteration, into bs.xi.
  void form() {
    if (formed_) return;
    bs_.form_interior(bs_.xb, bs_.xi);
    ++ws_.interior_updates;
    formed_ = true;
  }

  /// The previous iterate's interior, into bs.xi_prev.
  void previous_interior() {
    if (have_prev_) return;
    if (materialized_) {
      const int ni = static_cast<int>(bs_.interior.size());
      bs_.xi_prev.resize(static_cast<std::size_t>(ni));
      for (int k = 0; k < ni; ++k) bs_.xi_prev[k] = x_[bs_.interior[k]];
    } else {
      bs_.form_interior(bs_.xb_gen, bs_.xi_prev);
      ++ws_.interior_updates;
    }
    have_prev_ = true;
  }

  /// max_j |xb_j - from_j|.
  double border_step(const double* from) const {
    double m = 0.0;
    for (std::size_t j = 0; j < bs_.xb.size(); ++j) {
      m = std::max(m, std::abs(bs_.xb[j] - from[j]));
    }
    return m;
  }

  /// The interior test, once the border has passed.
  bool interior_converged() {
    form();
    const int ni = static_cast<int>(bs_.interior.size());
    if (!materialized_) {
      // |x_I,new - x_I| <= sum_j |W_ij| max_j |x_B,j - xb_gen_j|: settled
      // when that is at most half the tolerance, which leaves the rounding
      // of both interiors far inside it.
      const double step = border_step(bs_.xb_gen.data());
      bool settled = true;
      for (int k = 0; k < ni && settled; ++k) {
        const double abstol = is_node(k) ? st_.abstol_v : st_.abstol_i;
        settled = bs_.w_row_sum[k] * step <=
                  0.5 * (abstol + st_.reltol * std::abs(bs_.xi[k]));
      }
      if (settled) {
        ++ws_.interior_bound_passes;
        return true;
      }
    }
    previous_interior();
    for (int k = 0; k < ni; ++k) {
      if (!within_tolerance(bs_.xi[k], bs_.xi_prev[k], is_node(k), st_)) {
        ++ws_.interior_fails;
        return false;
      }
    }
    ++ws_.interior_exact_passes;
    return true;
  }

  /// Moves the interior iterate as the full-vector loop would.  Unformed
  /// while no interior node update can exceed max_voltage_step: the bound
  /// is sum_j |W_ij| times the border's step, plus, on the first iteration
  /// from the last solution converged on this key (whose interior is
  /// y_conv - W x_B), the drift of y_I since.  Otherwise the update is
  /// formed and, when a node update does exceed the step, clamped into x.
  void update_interior(bool first) {
    const int ni = static_cast<int>(bs_.interior.size());
    if (!have_prev_) {
      double bound = std::numeric_limits<double>::infinity();
      if (!materialized_) {
        bound = bs_.w_node_row_sum * border_step(bs_.xb_gen.data());
      } else if (first && bs_.have_conv &&
                 std::equal(x_.begin(), x_.end(), bs_.x_conv.begin(),
                            bs_.x_conv.end())) {
        // x's border is the border x_conv's interior came from.
        double step = 0.0;
        for (std::size_t j = 0; j < bs_.xb.size(); ++j) {
          step = std::max(step, std::abs(bs_.xb[j] - x_[bs_.border[j]]));
        }
        bound = 0.0;
        for (int k = 0; k < bs_.interior_nodes; ++k) {
          bound = std::max(bound, std::abs(bs_.y[k] - bs_.y_conv[k]) +
                                      bs_.w_row_sum[k] * step);
        }
      }
      if (bound <= 0.5 * st_.max_voltage_step) {
        keep_unformed();
        return;
      }
      form();
      previous_interior();
    }
    bool clamps = false;
    for (int k = 0; k < bs_.interior_nodes && !clamps; ++k) {
      clamps = std::abs(bs_.xi[k] - bs_.xi_prev[k]) > st_.max_voltage_step;
    }
    if (!clamps) {
      keep_unformed();
      return;
    }
    ++ws_.interior_clamps;
    for (int k = 0; k < ni; ++k) {
      double& xk = x_[bs_.interior[k]];
      xk = bs_.xi_prev[k];
      damped_update(bs_.xi[k], xk, is_node(k), st_);
    }
    materialized_ = true;
  }

  void keep_unformed() {
    bs_.xb_gen.assign(bs_.xb.begin(), bs_.xb.end());
    materialized_ = false;
  }

  const NewtonSettings& st_;
  const int n_nodes_;
  std::vector<double>& x_;
  SolveWorkspace& ws_;
  BorderedSolve& bs_;
  bool materialized_ = true;
  bool formed_ = false;     ///< bs.xi holds this iteration's interior
  bool have_prev_ = false;  ///< bs.xi_prev holds the previous iterate's
};

}  // namespace

NewtonOutcome newton_solve(const Circuit& ckt, StampContext ctx,
                           const NewtonSettings& st, int n_node_unknowns,
                           std::vector<double>& x, SolveWorkspace& ws) {
  NewtonOutcome out;
  ctx.x = &x;
  BorderLoop border(st, n_node_unknowns, x, ws);
  for (int it = 0; it < st.max_iterations; ++it) {
    out.iterations = it + 1;
    Outcome step;
    if (solve_border(ckt, ctx, st.gshunt, ws, it == 0)) {
      step = border.iterate(it == 0);
    } else {
      border.materialize();  // the full path tests every unknown
      step = full_iteration(ckt, ctx, st, n_node_unknowns, x, ws);
    }
    if (step == Outcome::kConverged) {
      out.converged = true;
      return out;
    }
    if (step == Outcome::kDiverged) break;
  }
  border.materialize();
  return out;
}

}  // namespace rlc::spice::detail
