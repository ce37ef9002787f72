#include "rlc/tline/coupled_line.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

#include "rlc/linalg/eigen.hpp"

namespace rlc::tline {

void CoupledLine::validate() const {
  if (!(r > 0.0)) throw std::domain_error("CoupledLine: require r > 0");
  const std::size_t n = inductance.rows();
  if (n == 0 || inductance.cols() != n || capacitance.rows() != n ||
      capacitance.cols() != n) {
    throw std::domain_error(
        "CoupledLine: L and C must be square matrices of equal size >= 1");
  }
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      scale = std::max({scale, std::abs(inductance(i, j)),
                        std::abs(capacitance(i, j))});
  for (std::size_t i = 0; i < n; ++i) {
    if (!(capacitance(i, i) > 0.0))
      throw std::domain_error("CoupledLine: require diag(C) > 0");
    if (!(inductance(i, i) >= 0.0))
      throw std::domain_error("CoupledLine: require diag(L) >= 0");
    for (std::size_t j = i + 1; j < n; ++j) {
      if (std::abs(inductance(i, j) - inductance(j, i)) > 1e-12 * scale ||
          std::abs(capacitance(i, j) - capacitance(j, i)) > 1e-12 * scale) {
        throw std::domain_error("CoupledLine: L and C must be symmetric");
      }
    }
  }
}

double coupling_km_bound(std::size_t n) {
  if (n <= 2) return 1.0;
  return 0.5 / std::cos(std::numbers::pi / static_cast<double>(n + 1));
}

CoupledLine symmetric_bus(const LineParams& base, double cc, double km,
                          std::size_t n) {
  base.validate();
  if (n < 1 || n > 8)
    throw std::domain_error("symmetric_bus: require 1 <= n <= 8");
  if (n > 1 && !(cc >= 0.0))
    throw std::domain_error("symmetric_bus: require cc >= 0");
  if (n > 1 && !(std::abs(km) < coupling_km_bound(n)))
    throw std::domain_error("symmetric_bus: require |km| < " +
                            std::to_string(coupling_km_bound(n)) + " at n = " +
                            std::to_string(n));

  CoupledLine line;
  line.r = base.r;
  line.inductance = linalg::MatrixD(n, n, 0.0);
  line.capacitance = linalg::MatrixD(n, n, 0.0);
  // Path-adjacency couplings; every conductor homogenized to the same total
  // shunt capacitance c + d_max*cc (edge conductors make up the difference
  // with a grounded shield cap).
  const double d_max = (n >= 3) ? 2.0 : (n == 2 ? 1.0 : 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    line.inductance(i, i) = base.l;
    line.capacitance(i, i) = base.c + d_max * cc;
    if (i + 1 < n) {
      line.inductance(i, i + 1) = km * base.l;
      line.inductance(i + 1, i) = km * base.l;
      line.capacitance(i, i + 1) = -cc;
      line.capacitance(i + 1, i) = -cc;
    }
  }
  return line;
}

std::vector<double> ModalDecomposition::modal_weights(
    const std::vector<double>& x) const {
  const std::size_t n = modes.size();
  if (x.size() != n)
    throw std::invalid_argument("ModalDecomposition::modal_weights: size");
  std::vector<double> m(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += vectors(i, j) * x[i];
    m[j] = acc;
  }
  return m;
}

std::vector<double> ModalDecomposition::recompose(
    const std::vector<double>& m) const {
  const std::size_t n = modes.size();
  if (m.size() != n)
    throw std::invalid_argument("ModalDecomposition::recompose: size");
  std::vector<double> x(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += vectors(i, j) * m[j];
    x[i] = acc;
  }
  return x;
}

ModalDecomposition modal_decomposition(const CoupledLine& line) {
  line.validate();
  const std::size_t n = line.conductors();

  ModalDecomposition d;
  if (n == 1) {
    // Degenerate single conductor: identity basis, no eigensolve (keeps the
    // scalar path bit-exact).
    d.modes.push_back(
        LineParams{line.r, line.inductance(0, 0), line.capacitance(0, 0)});
    d.vectors = linalg::MatrixD(1, 1, 1.0);
    d.modes[0].validate();
    return d;
  }

  // Shared orthonormal basis: diagonalize C first (its spectrum orders the
  // modes), then L inside degenerate C-clusters.  Throws if [C, L] != 0.
  linalg::SimultaneousDiagResult sd =
      linalg::simultaneous_diagonalize(line.capacitance, line.inductance);
  d.vectors = std::move(sd.vectors);
  d.modes.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    LineParams mode{line.r, sd.b_values[j], sd.a_values[j]};
    // Clamp eigensolver roundoff on an exactly-zero modal inductance.
    if (mode.l < 0.0 && mode.l > -1e-15 * std::abs(line.inductance(0, 0)))
      mode.l = 0.0;
    mode.validate();
    d.modes.push_back(mode);
  }
  return d;
}

}  // namespace rlc::tline
