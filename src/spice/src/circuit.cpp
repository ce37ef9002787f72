#include "rlc/spice/circuit.hpp"

#include <stdexcept>

namespace rlc::spice {

Circuit::Circuit() {
  node_names_.push_back("0");
  node_ids_["0"] = 0;
  node_ids_["gnd"] = 0;
  node_ids_["GND"] = 0;
}

NodeId Circuit::node(const std::string& name) {
  const auto it = node_ids_.find(name);
  if (it != node_ids_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(node_names_.size());
  node_names_.push_back(name);
  node_ids_[name] = id;
  return id;
}

const std::string& Circuit::node_name(NodeId n) const {
  if (n < 0 || n >= node_count()) {
    throw std::out_of_range("Circuit::node_name: bad node id");
  }
  return node_names_[n];
}

template <typename T, typename... Args>
T& Circuit::emplace(Args&&... args) {
  auto dev = std::make_unique<T>(std::forward<Args>(args)...);
  T& ref = *dev;
  devices_.push_back(std::move(dev));
  finalized_ = false;
  return ref;
}

Resistor& Circuit::add_resistor(const std::string& name, NodeId a, NodeId b,
                                double ohms) {
  return emplace<Resistor>(name, a, b, ohms);
}

Capacitor& Circuit::add_capacitor(const std::string& name, NodeId a, NodeId b,
                                  double farads, std::optional<double> ic) {
  return emplace<Capacitor>(name, a, b, farads, ic);
}

Inductor& Circuit::add_inductor(const std::string& name, NodeId a, NodeId b,
                                double henries, std::optional<double> ic) {
  return emplace<Inductor>(name, a, b, henries, ic);
}

VSource& Circuit::add_vsource(const std::string& name, NodeId p, NodeId n,
                              Waveform w, double ac_magnitude) {
  return emplace<VSource>(name, p, n, std::move(w), ac_magnitude);
}

ISource& Circuit::add_isource(const std::string& name, NodeId p, NodeId n,
                              Waveform w, double ac_magnitude) {
  return emplace<ISource>(name, p, n, std::move(w), ac_magnitude);
}

Mosfet& Circuit::add_mosfet(const std::string& name, NodeId d, NodeId g,
                            NodeId s, const MosParams& params, double size) {
  return emplace<Mosfet>(name, d, g, s, params, size);
}

MutualInductance& Circuit::add_mutual(const std::string& name, Inductor& l1,
                                      Inductor& l2, double coupling) {
  return emplace<MutualInductance>(name, l1, l2, coupling);
}

Vcvs& Circuit::add_vcvs(const std::string& name, NodeId p, NodeId n, NodeId cp,
                        NodeId cn, double gain) {
  return emplace<Vcvs>(name, p, n, cp, cn, gain);
}

Vccs& Circuit::add_vccs(const std::string& name, NodeId p, NodeId n, NodeId cp,
                        NodeId cn, double gm) {
  return emplace<Vccs>(name, p, n, cp, cn, gm);
}

Device* Circuit::find(const std::string& name) {
  for (const auto& d : devices_) {
    if (d->name() == name) return d.get();
  }
  return nullptr;
}

const Device* Circuit::find(const std::string& name) const {
  return const_cast<Circuit*>(this)->find(name);
}

void Circuit::finalize() {
  if (finalized_) return;
  int base = node_count() - 1;
  branch_total_ = 0;
  nonlinear_ = false;
  for (const auto& d : devices_) {
    if (d->branch_count() > 0) {
      d->set_branch_base(base);
      base += d->branch_count();
      branch_total_ += d->branch_count();
    }
    nonlinear_ = nonlinear_ || d->nonlinear();
  }
  finalized_ = true;
}

int Circuit::unknown_count() const {
  if (!finalized_) {
    throw std::logic_error("Circuit::unknown_count: call finalize() first");
  }
  return node_count() - 1 + branch_total_;
}

bool Circuit::has_nonlinear() const {
  if (!finalized_) {
    throw std::logic_error("Circuit::has_nonlinear: call finalize() first");
  }
  return nonlinear_;
}

}  // namespace rlc::spice
