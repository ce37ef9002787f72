#pragma once

/// \file coupled_line.hpp
/// N-conductor coupled RLC line (per-unit-length R scalar + L/C matrices)
/// and its modal decomposition into independent scalar lines.
///
/// The coupled telegrapher equations  d2V/dx2 = (rI + sL)(sC) V  decouple
/// exactly (at every frequency) when [L, C] = 0: an orthonormal W that
/// diagonalizes both maps each mode j onto a *scalar* line (r, l_j, c_j)
/// that reuses Eq. (1) and the SoA batch kernel (BatchTransferEvaluator)
/// unchanged.  Because the driver/load boundary (Rs, Cp, Cl) is
/// scalar-times-identity it is invariant under W, so each mode also keeps
/// the scalar DriverLoad.  Physical far-end waveforms are recomposed as
/// V(t) = V(0-) + W diag(v_j(t)) W^T (U(0+) - V(0-)).
///
/// `symmetric_bus` builds the homogenized bus used by the xtalk scenarios:
/// L = l (I + km A) and C = (c + d_max cc) I - cc A with A the path
/// adjacency and d_max = min(n-1, 2).  Both are polynomials in A, so they
/// commute by construction; edge conductors carry a compensating cc to
/// ground so every conductor sees the same total capacitance (a shielded
/// bus).  This is the topology rlc::ringosc::add_coupled_bus builds as an
/// MNA ladder bus; n = 1 degenerates to LineParams.

#include <cstddef>
#include <vector>

#include "rlc/linalg/matrix.hpp"
#include "rlc/tline/line.hpp"

namespace rlc::tline {

/// Per-unit-length description of n >= 1 coupled conductors.
struct CoupledLine {
  double r = 0.0;                 ///< series resistance [Ohm/m], per conductor
  linalg::MatrixD inductance;     ///< L matrix [H/m], symmetric
  linalg::MatrixD capacitance;    ///< Maxwell C matrix [F/m], symmetric

  std::size_t conductors() const { return inductance.rows(); }

  /// Throws std::domain_error unless r > 0, both matrices are square,
  /// symmetric, of matching size >= 1, diag(C) > 0 and diag(L) >= 0.
  void validate() const;
};

/// Exclusive bound on |km| for an n-conductor symmetric bus: l (I + km A)
/// is positive definite only while |km| < 1 / (2 cos(pi / (n + 1))), the
/// reciprocal of the path adjacency's spectral radius.  That is 1 at n = 2,
/// 0.7071 at 3, 0.618 at 4 and 0.532 at 8; n = 1 has no mutual pair and
/// keeps the two-conductor bound 1.
double coupling_km_bound(std::size_t n);

/// Homogenized n-conductor bus over a scalar base line: every conductor has
/// the base (r, l, c), nearest neighbours couple through cc [F/m] and
/// mutual-inductance ratio km (dimensionless, |km| < coupling_km_bound(n)).
/// Requires 1 <= n <= 8, cc >= 0 (ignored for n = 1).
CoupledLine symmetric_bus(const LineParams& base, double cc, double km,
                          std::size_t n);

/// The modal picture: K independent scalar lines plus the orthonormal
/// change of basis.  Column j of `vectors` is the physical pattern of mode
/// j; modes are sorted by ascending modal capacitance (for the n = 2 bus:
/// mode 0 = even/in-phase, mode 1 = odd/anti-phase).
struct ModalDecomposition {
  std::vector<LineParams> modes;
  linalg::MatrixD vectors;

  std::size_t size() const { return modes.size(); }

  /// W^T x: physical excitation pattern -> per-mode weights.
  std::vector<double> modal_weights(const std::vector<double>& x) const;

  /// W m: per-mode values -> physical conductor values.
  std::vector<double> recompose(const std::vector<double>& m) const;
};

/// Diagonalize a coupled line.  Throws std::runtime_error if [L, C] != 0
/// (no frequency-independent modal basis exists) and std::domain_error if a
/// modal line is unphysical (e.g. |km| large enough to drive a modal
/// inductance negative).
ModalDecomposition modal_decomposition(const CoupledLine& line);

}  // namespace rlc::tline
