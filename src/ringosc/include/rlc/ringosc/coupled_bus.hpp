#pragma once

/// \file coupled_bus.hpp
/// N inductively and capacitively coupled RLC lines: the MNA reference for
/// the analytical coupled engine behind the xtalk scenarios, and the
/// aggressor/victim configuration of the paper's Section 1.1/3 discussion of
/// switching-dependent effective capacitance (Miller factor up to 4x) and
/// return-path-dependent inductance.
///
/// Each line is a pi-ladder; per segment, a coupling capacitor (cc * dx)
/// connects corresponding junctions of neighbouring lines and a
/// mutual-inductance K element couples their series inductors.

#include "rlc/core/technology.hpp"
#include "rlc/ringosc/ladder.hpp"

namespace rlc::ringosc {

/// Per-unit-length coupling parameters between neighbouring lines.
struct CouplingParams {
  double cc = 0.0;  ///< line-to-line capacitance per unit length [F/m]
  /// Inductive coupling coefficient (0 disables); an n-line bus requires
  /// |km| < rlc::tline::coupling_km_bound(n).
  double km = 0.0;
};

/// N coupled pi-ladders forming the homogenized symmetric bus that
/// rlc::tline::symmetric_bus models analytically: nearest-neighbour
/// coupling caps (cc * dx) between corresponding junctions, mutual-K
/// elements between corresponding inductors, and — for n >= 3 — a
/// compensating (shield) cap to ground on the edge conductors so every
/// conductor sees the same total shunt capacitance.  Returns one Ladder
/// per conductor.  Throws std::invalid_argument on a from/to size mismatch,
/// cc < 0, |km| >= rlc::tline::coupling_km_bound(n), or km != 0 with
/// line.l == 0.
std::vector<Ladder> add_coupled_bus(rlc::spice::Circuit& ckt,
                                    const std::string& name,
                                    const std::vector<rlc::spice::NodeId>& from,
                                    const std::vector<rlc::spice::NodeId>& to,
                                    const rlc::tline::LineParams& line,
                                    const CouplingParams& coupling,
                                    double length, int nseg);

/// Full-waveform MNA reference for the analytical coupled engine: every
/// conductor is driven through its own repeater (Rs + Cp) by a step from
/// initial[i] to target[i] (near-ideal edges), loaded by Cl, with the whole
/// bus pre-charged to the initial levels.  Far-end voltages are sampled on
/// the solver grid up to tstop.
struct CoupledStepResult {
  bool completed = false;
  std::vector<double> time;                   ///< sample times [s]
  std::vector<std::vector<double>> far_end;   ///< [conductor][sample] [V]
};

CoupledStepResult run_coupled_step(const rlc::core::Technology& tech,
                                   const CouplingParams& coupling, double l,
                                   double h, double k,
                                   const std::vector<double>& initial,
                                   const std::vector<double>& target,
                                   double tstop, int steps, int nseg = 16);

}  // namespace rlc::ringosc
