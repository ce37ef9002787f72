#pragma once

/// \file devices.hpp
/// Concrete linear devices: resistor, capacitor, inductor, independent
/// voltage/current sources.  Companion models:
///   capacitor (trap):  i = (2C/dt)(v - v_prev) - i_prev
///   capacitor (BE):    i = (C/dt)(v - v_prev)
///   inductor (trap):   v - (2L/dt) i = -(v_prev + (2L/dt) i_prev)
///   inductor (BE):     v - (L/dt) i  = -(L/dt) i_prev
/// stamp() adds the left-hand sides' matrix entries only.  The right-hand
/// sides and the history (v_prev, i_prev) live in the analysis' companion
/// table, which each device's companion() seeds (see Companion).

#include <optional>

#include "rlc/spice/device.hpp"
#include "rlc/spice/waveform.hpp"

namespace rlc::spice {

class Resistor : public Device {
 public:
  Resistor(std::string name, NodeId a, NodeId b, double ohms);
  void stamp(const StampContext& ctx, Stamper& st) const override;
  void stamp_ac(const AcContext& ctx, AcStamper& st) const override;
  double resistance() const { return ohms_; }
  NodeId node_a() const { return a_; }
  NodeId node_b() const { return b_; }
  /// Current a -> b given a solution vector.
  double current(const std::vector<double>& x) const;

 private:
  NodeId a_, b_;
  double ohms_;
};

class Capacitor : public Device {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double farads,
            std::optional<double> ic = std::nullopt);
  void stamp(const StampContext& ctx, Stamper& st) const override;
  void stamp_ac(const AcContext& ctx, AcStamper& st) const override;
  std::optional<Companion> companion() const override;
  double capacitance() const { return farads_; }

 private:
  NodeId a_, b_;
  double farads_;
  std::optional<double> ic_;
};

class Inductor : public Device {
 public:
  Inductor(std::string name, NodeId a, NodeId b, double henries,
           std::optional<double> ic = std::nullopt);
  int branch_count() const override { return 1; }
  void stamp(const StampContext& ctx, Stamper& st) const override;
  void stamp_ac(const AcContext& ctx, AcStamper& st) const override;
  std::optional<Companion> companion() const override;
  double inductance() const { return henries_; }
  /// Initial branch current for UIC starts.
  double initial_current() const { return ic_.value_or(0.0); }

 private:
  NodeId a_, b_;
  double henries_;
  std::optional<double> ic_;
};

/// Independent voltage source; positive branch current flows from node p
/// through the source to node n (SPICE convention).
class VSource : public Device {
 public:
  /// `ac_magnitude` is the small-signal drive used by AC analysis
  /// (0 = quiet source, as in SPICE).
  VSource(std::string name, NodeId p, NodeId n, Waveform w,
          double ac_magnitude = 0.0);
  int branch_count() const override { return 1; }
  void stamp(const StampContext& ctx, Stamper& st) const override;
  void stamp_ac(const AcContext& ctx, AcStamper& st) const override;
  std::optional<Companion> companion() const override;
  double value_at(double t) const { return waveform_value(waveform_, t); }
  double ac_magnitude() const { return ac_magnitude_; }

 private:
  NodeId p_, n_;
  Waveform waveform_;
  double ac_magnitude_;
};

/// Independent current source driving current from node p through the
/// source into node n.
class ISource : public Device {
 public:
  ISource(std::string name, NodeId p, NodeId n, Waveform w,
          double ac_magnitude = 0.0);
  /// No matrix entries: the source drives the right-hand side alone.
  void stamp(const StampContext& ctx, Stamper& st) const override;
  void stamp_ac(const AcContext& ctx, AcStamper& st) const override;
  std::optional<Companion> companion() const override;

 private:
  NodeId p_, n_;
  Waveform waveform_;
  double ac_magnitude_;
};

}  // namespace rlc::spice
