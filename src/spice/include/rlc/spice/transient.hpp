#pragma once

/// \file transient.hpp
/// Transient analysis: trapezoidal (default) or backward-Euler integration
/// with per-step Newton iteration, automatic step halving on Newton failure,
/// and backward-Euler startup steps to damp the trapezoidal rule's response
/// to inconsistent initial conditions.

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rlc/spice/circuit.hpp"

namespace rlc::spice {

/// What to record during the run.  Recording everything is fine for small
/// circuits; ladder-line circuits with 10^5 steps should probe selectively.
struct Probe {
  enum class Kind { kNodeVoltage, kBranchCurrent, kResistorCurrent };
  Kind kind = Kind::kNodeVoltage;
  NodeId node = 0;
  const Device* device = nullptr;
  std::string label;

  static Probe node_voltage(NodeId n, std::string label) {
    return {Kind::kNodeVoltage, n, nullptr, std::move(label)};
  }
  /// Current through a device that owns a branch unknown (VSource/Inductor).
  static Probe branch_current(const Device& d, std::string label) {
    return {Kind::kBranchCurrent, 0, &d, std::move(label)};
  }
  static Probe resistor_current(const Resistor& r, std::string label) {
    return {Kind::kResistorCurrent, 0, &r, std::move(label)};
  }
};

struct TransientOptions {
  double tstop = 0.0;
  double dt = 0.0;              ///< base (maximum) step
  double record_start = 0.0;    ///< discard samples before this time
  Integrator method = Integrator::kTrapezoidal;
  int be_startup_steps = 2;     ///< backward-Euler steps at t = 0

  bool start_from_dc = false;   ///< false: UIC start from initial_voltages
  std::vector<std::pair<NodeId, double>> initial_voltages;

  int max_newton = 60;
  double reltol = 1e-4;
  double abstol_v = 1e-6;
  double abstol_i = 1e-9;
  double max_voltage_step = 1.0;
  int max_step_halvings = 12;

  /// Local-truncation-error step control (opt-in).  Uses the Milne device:
  /// the difference between the trapezoidal corrector and a polynomial
  /// predictor estimates the O(dt^3) LTE; steps with a normalized error
  /// above 1 are rejected and the step size follows err^(-1/3), bounded by
  /// [dt / 2^max_step_halvings, dt] (opts.dt acts as the maximum step).
  bool adaptive_lte = false;
  double lte_reltol = 1e-3;
  double lte_abstol_v = 1e-5;

  std::vector<Probe> probes;    ///< empty: record every node voltage
};

struct TransientResult {
  std::vector<double> time;
  std::vector<std::string> labels;
  std::vector<std::vector<double>> signals;  ///< signals[probe][sample]
  bool completed = false;
  long steps_accepted = 0;
  long steps_rejected = 0;
  long newton_iterations = 0;
  /// Sparse LU factorizations, full plus numeric-only (the initial DC
  /// solve's are not counted).  A linear circuit factors only when
  /// (integrator, dt) changes from one step to the next, so a fixed-dt run
  /// with backward-Euler start-up steps factors twice.  A nonlinear circuit
  /// whose devices touch few unknowns (a ring of inverters on RLC ladders)
  /// factors its linear interior as often and solves each Newton iteration
  /// on the small border those devices touch; any other nonlinear circuit
  /// factors once per Newton iteration.
  long factorizations = 0;
  /// Dense LU factorizations of the border system, one per Newton
  /// iteration that took the bordered solve (0 when none did); a singular
  /// one, which hands its iteration to the full path, counts too.
  long border_factorizations = 0;

  /// Signal by label; throws std::out_of_range if unknown.
  const std::vector<double>& signal(const std::string& label) const;
};

/// Run a transient analysis.  Throws std::invalid_argument on bad options,
/// checked before any solve: among them a probe the circuit cannot answer
/// (a node it does not have, a device not in it, the branch current of a
/// device without a branch, a resistor current of a non-resistor) and an
/// initial voltage on a node it does not have.  Throws std::runtime_error
/// if the initial DC solve (when requested) fails.
TransientResult run_transient(Circuit& ckt, const TransientOptions& opts);

}  // namespace rlc::spice
