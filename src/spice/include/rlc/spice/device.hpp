#pragma once

/// \file device.hpp
/// The device abstraction of the MNA circuit engine.  Unknown ordering:
/// node voltages first (node n > 0 maps to unknown n - 1; node 0 is ground),
/// then one current unknown per device "branch" (voltage sources and
/// inductors).  Devices contribute matrix entries via stamps.  The linear
/// devices' right-hand side (sources and companion-model history) is not
/// stamped: each such device describes it once as a Companion, and every
/// analysis keeps those terms, with their history, in one table of its own.

#include <complex>
#include <optional>
#include <string>
#include <vector>

#include "rlc/linalg/matrix.hpp"
#include "rlc/linalg/sparse.hpp"
#include "rlc/spice/waveform.hpp"

namespace rlc::spice {

using NodeId = int;  ///< 0 is ground

enum class Analysis { kDc, kTransient };
enum class Integrator { kTrapezoidal, kBackwardEuler };

/// Everything a device needs to know to stamp itself.
struct StampContext {
  Analysis analysis = Analysis::kDc;
  Integrator method = Integrator::kTrapezoidal;
  double time = 0.0;  ///< time being solved for (end of the step)
  double dt = 0.0;    ///< step size (transient only)
  const std::vector<double>* x = nullptr;  ///< current Newton iterate
  double gmin = 0.0;          ///< convergence-aid shunt (DC gmin stepping)
  double source_scale = 1.0;  ///< source stepping homotopy factor

  /// Voltage of node n in the current iterate (0 for ground).
  double v(NodeId n) const { return n == 0 ? 0.0 : (*x)[n - 1]; }
  /// Value of unknown `i` (nodes and branches alike).
  double unknown(int i) const { return (*x)[i]; }
};

/// Collects matrix triplets and the right-hand side.  Row/column index -1
/// denotes ground and is ignored, so device stamp code needs no special
/// cases for grounded terminals.
class Stamper {
 public:
  Stamper(std::vector<rlc::linalg::Triplet>& triplets, std::vector<double>& rhs)
      : triplets_(triplets), rhs_(rhs) {}

  /// Matrix entry A(row, col) += value.
  void add(int row, int col, double value) {
    if (row < 0 || col < 0) return;
    triplets_.push_back({row, col, value});
  }
  /// Right-hand side z(row) += value (nonlinear devices only).
  void add_rhs(int row, double value) {
    if (row < 0) return;
    rhs_[row] += value;
  }

  /// Unknown index of node n (-1 for ground).
  static int unk(NodeId n) { return n - 1; }

 private:
  std::vector<rlc::linalg::Triplet>& triplets_;
  std::vector<double>& rhs_;
};

/// The right-hand side of a linear device, as Device::companion() describes
/// it; unknown index -1 denotes ground.  An analysis copies it into its
/// companion table, which holds the history (v_prev, i_prev) and adds per
/// step, with f = 2 (trapezoidal) or 1 (backward Euler):
///   capacitor:       g v_prev, plus i_prev if trapezoidal, into a and out
///                    of b, g = f C/dt; starts from v_prev = ic or
///                    v(a) - v(b), i_prev = 0
///   inductor:        -(v_prev + (2L/dt) i_prev) if trapezoidal, else
///                    -(L/dt) i_prev, into its branch row; starts from
///                    v(a) - v(b) and ic or its branch current
///   mutual:          -(f M/dt) times the other branch's previous current
///                    into each of the branch rows a and b
///   voltage source:  v(t) source_scale into its branch row
///   current source:  i(t) source_scale out of a and into b
/// At DC only the sources add, at their t = 0 values.
struct Companion {
  enum class Kind : unsigned char {
    kCapacitor,
    kInductor,
    kMutual,
    kVoltageSource,
    kCurrentSource
  };
  Kind kind = Kind::kCapacitor;
  /// A capacitor's, inductor's or current source's two terminals (current
  /// flows from a to b); a mutual inductance's two branch currents.
  int a = -1, b = -1;
  int branch = -1;     ///< an inductor's or voltage source's branch current
  double value = 0.0;  ///< C [F], L [H] or M [H]
  const Waveform* waveform = nullptr;  ///< a source's (owned by the device)
  std::optional<double> ic;  ///< a capacitor's voltage or inductor's current
};

/// Context for small-signal AC stamping: angular frequency and the DC
/// operating point nonlinear devices linearize around.
struct AcContext {
  double omega = 0.0;
  const std::vector<double>* op = nullptr;  ///< DC operating point

  double v_op(NodeId n) const {
    return (n == 0 || op == nullptr) ? 0.0 : (*op)[n - 1];
  }
};

/// Complex-valued stamper for the AC (dense) MNA system.  Index -1 denotes
/// ground, as in Stamper.
class AcStamper {
 public:
  AcStamper(rlc::linalg::MatrixC& a, std::vector<std::complex<double>>& rhs)
      : a_(a), rhs_(rhs) {}
  void add(int row, int col, std::complex<double> value) {
    if (row < 0 || col < 0) return;
    a_(row, col) += value;
  }
  void add_rhs(int row, std::complex<double> value) {
    if (row < 0) return;
    rhs_[row] += value;
  }

 private:
  rlc::linalg::MatrixC& a_;
  std::vector<std::complex<double>>& rhs_;
};

class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }

  /// Number of extra current unknowns this device introduces.
  virtual int branch_count() const { return 0; }
  /// Index of the device's first branch unknown (set by Circuit::finalize).
  void set_branch_base(int base) { branch_base_ = base; }
  int branch_base() const { return branch_base_; }

  /// True if the stamp depends on the current iterate (requires Newton).
  /// Either answer is also a promise the transient engine relies on.
  ///
  /// `false`: stamp() adds matrix entries only, and they depend only on
  /// (analysis, integrator, dt) — never on the time, the iterate or the
  /// source scale.  The device keeps no state: its right-hand side, if it
  /// has one, is what companion() describes, and the analysis evaluates it
  /// from its own companion table, whose history it advances per accepted
  /// step; that right-hand side never reads the iterate.  A circuit of such
  /// devices is factored once per (analysis, integrator, dt, gmin) and then
  /// stepped on the right-hand side alone; in a nonlinear circuit their
  /// right-hand side is filled once per step.
  ///
  /// `true`: stamp() adds its matrix entries and right-hand side at the
  /// iterate, the same (row, col) sequence at every iterate, and writes the
  /// right-hand side only on those rows, so the bordered Newton solve can
  /// find the rows and columns these devices touch from one stamp.  The
  /// stamp reads only the unknowns whose columns it stamps, so the bordered
  /// Newton loop leaves the rest of the iterate unformed.
  virtual bool nonlinear() const { return false; }

  /// Contribute to the MNA system for the given context.
  virtual void stamp(const StampContext& ctx, Stamper& st) const = 0;

  /// A linear device's right-hand side (sources, companion history); none
  /// by default.  Nonlinear devices stamp theirs instead.
  virtual std::optional<Companion> companion() const { return std::nullopt; }

  /// Contribute to the small-signal AC system at the given frequency,
  /// linearized around ctx.op.  Every built-in device implements this;
  /// the default rejects devices without an AC model so a missing override
  /// cannot silently produce wrong frequency responses.
  virtual void stamp_ac(const AcContext& ctx, AcStamper& st) const;

 private:
  std::string name_;
  int branch_base_ = -1;
};

}  // namespace rlc::spice
