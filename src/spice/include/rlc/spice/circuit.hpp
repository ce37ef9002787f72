#pragma once

/// \file circuit.hpp
/// Netlist container: named nodes, device factory methods, and unknown
/// layout (node voltages followed by branch currents).

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "rlc/spice/coupled.hpp"
#include "rlc/spice/devices.hpp"
#include "rlc/spice/mosfet.hpp"

namespace rlc::spice {

class Circuit {
 public:
  Circuit();

  /// Get-or-create a named node ("0", "gnd" and "GND" are ground).
  NodeId node(const std::string& name);
  /// Ground node id (0).
  NodeId ground() const { return 0; }
  /// Name of a node id.
  const std::string& node_name(NodeId n) const;
  /// Number of nodes including ground.
  int node_count() const { return static_cast<int>(node_names_.size()); }

  Resistor& add_resistor(const std::string& name, NodeId a, NodeId b,
                         double ohms);
  Capacitor& add_capacitor(const std::string& name, NodeId a, NodeId b,
                           double farads,
                           std::optional<double> ic = std::nullopt);
  Inductor& add_inductor(const std::string& name, NodeId a, NodeId b,
                         double henries,
                         std::optional<double> ic = std::nullopt);
  VSource& add_vsource(const std::string& name, NodeId p, NodeId n,
                       Waveform w, double ac_magnitude = 0.0);
  ISource& add_isource(const std::string& name, NodeId p, NodeId n,
                       Waveform w, double ac_magnitude = 0.0);
  Mosfet& add_mosfet(const std::string& name, NodeId d, NodeId g, NodeId s,
                     const MosParams& params, double size = 1.0);
  /// Mutual coupling between two inductors already in this circuit.
  MutualInductance& add_mutual(const std::string& name, Inductor& l1,
                               Inductor& l2, double coupling);
  Vcvs& add_vcvs(const std::string& name, NodeId p, NodeId n, NodeId cp,
                 NodeId cn, double gain);
  Vccs& add_vccs(const std::string& name, NodeId p, NodeId n, NodeId cp,
                 NodeId cn, double gm);

  const std::vector<std::unique_ptr<Device>>& devices() const {
    return devices_;
  }
  /// Find a device by name (nullptr if absent).
  Device* find(const std::string& name);
  const Device* find(const std::string& name) const;

  /// Assign branch unknown indices; must be called (or is called lazily by
  /// the analyses) after the netlist is complete.  Idempotent until the
  /// netlist changes.
  void finalize();
  bool finalized() const { return finalized_; }

  /// Total unknowns: (node_count - 1) node voltages + branch currents.
  int unknown_count() const;
  /// True if any device requires Newton iteration (cached by finalize();
  /// throws std::logic_error before it, like unknown_count()).
  bool has_nonlinear() const;

 private:
  template <typename T, typename... Args>
  T& emplace(Args&&... args);

  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<std::string> node_names_;
  std::unordered_map<std::string, NodeId> node_ids_;
  bool finalized_ = false;
  bool nonlinear_ = false;
  int branch_total_ = 0;
};

}  // namespace rlc::spice
