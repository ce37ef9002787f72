#pragma once

/// \file ac.hpp
/// Small-signal AC analysis: linearize every device at the DC operating
/// point and solve the complex MNA system at each requested frequency.
/// Sources contribute their `ac_magnitude`.  The dense complex LU is used —
/// AC sweeps here are validation-sized (ladder lines, small amplifiers),
/// where dense is both simple and fast.

#include <complex>
#include <string>
#include <vector>

#include "rlc/spice/circuit.hpp"
#include "rlc/spice/transient.hpp"

namespace rlc::spice {

struct AcOptions {
  std::vector<double> frequencies;  ///< [Hz], each > 0
  /// Compute the DC operating point first (needed whenever the circuit has
  /// nonlinear devices); false skips it for purely linear circuits.
  bool compute_dc_op = true;
  std::vector<Probe> probes;  ///< empty: every node voltage
};

struct AcResult {
  std::vector<double> freq;
  std::vector<std::string> labels;
  /// signals[probe][freq_index] — complex phasor response.
  std::vector<std::vector<std::complex<double>>> signals;
  bool completed = false;

  const std::vector<std::complex<double>>& signal(const std::string& label) const;
};

/// Helpers to build log-spaced frequency grids.
std::vector<double> log_frequencies(double f_start, double f_stop,
                                    int points_per_decade);

/// Run the AC sweep.  Throws std::invalid_argument on an empty/invalid
/// frequency list or a probe the circuit cannot answer (as run_transient
/// checks them) and std::runtime_error if the DC solve fails.
AcResult run_ac(Circuit& ckt, const AcOptions& opts);

}  // namespace rlc::spice
