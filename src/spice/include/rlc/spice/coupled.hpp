#pragma once

/// \file coupled.hpp
/// Coupled and controlled elements:
///   * MutualInductance — SPICE K element between two inductors, enabling
///     the inductively-coupled bus experiments the paper's Section 1.1/3
///     discussion motivates (return-path and neighbour-switching effects);
///   * Vcvs / Vccs — linear controlled sources (E / G elements).

#include "rlc/spice/devices.hpp"

namespace rlc::spice {

/// Mutual inductance M = k sqrt(L1 L2) between two existing inductors
/// (|k| < 1; negative k flips the coupling polarity).  Adds the M di/dt
/// cross terms to both inductors' branch equations:
///   v1 = L1 di1/dt + M di2/dt,   v2 = M di1/dt + L2 di2/dt.
class MutualInductance : public Device {
 public:
  MutualInductance(std::string name, Inductor& l1, Inductor& l2,
                   double coupling);
  void stamp(const StampContext& ctx, Stamper& st) const override;
  void stamp_ac(const AcContext& ctx, AcStamper& st) const override;
  std::optional<Companion> companion() const override;
  double mutual() const { return m_; }

 private:
  const Inductor* l1_;
  const Inductor* l2_;
  double m_;  ///< mutual inductance [H]
};

/// Voltage-controlled voltage source: v(p) - v(n) = gain * (v(cp) - v(cn)).
class Vcvs : public Device {
 public:
  Vcvs(std::string name, NodeId p, NodeId n, NodeId cp, NodeId cn,
       double gain);
  int branch_count() const override { return 1; }
  void stamp(const StampContext& ctx, Stamper& st) const override;
  void stamp_ac(const AcContext& ctx, AcStamper& st) const override;

 private:
  NodeId p_, n_, cp_, cn_;
  double gain_;
};

/// Voltage-controlled current source: i(p -> n) = gm * (v(cp) - v(cn)).
class Vccs : public Device {
 public:
  Vccs(std::string name, NodeId p, NodeId n, NodeId cp, NodeId cn, double gm);
  void stamp(const StampContext& ctx, Stamper& st) const override;
  void stamp_ac(const AcContext& ctx, AcStamper& st) const override;

 private:
  NodeId p_, n_, cp_, cn_;
  double gm_;
};

}  // namespace rlc::spice
