#include "rlc/ringosc/coupled_bus.hpp"

#include <cmath>
#include <stdexcept>

#include "rlc/spice/transient.hpp"
#include "rlc/tline/coupled_line.hpp"

namespace rlc::ringosc {

using rlc::spice::Circuit;
using rlc::spice::NodeId;

std::vector<Ladder> add_coupled_bus(Circuit& ckt, const std::string& name,
                                    const std::vector<NodeId>& from,
                                    const std::vector<NodeId>& to,
                                    const rlc::tline::LineParams& line,
                                    const CouplingParams& coupling,
                                    double length, int nseg) {
  const std::size_t n = from.size();
  if (n == 0 || to.size() != n) {
    throw std::invalid_argument("add_coupled_bus: from/to size mismatch");
  }
  if (!(coupling.cc >= 0.0) ||
      !(std::abs(coupling.km) < rlc::tline::coupling_km_bound(n))) {
    throw std::invalid_argument(
        "add_coupled_bus: require cc >= 0 and |km| < " +
        std::to_string(rlc::tline::coupling_km_bound(n)) + " at n = " +
        std::to_string(n));
  }
  if (n > 1 && coupling.km != 0.0 && line.l <= 0.0) {
    throw std::invalid_argument(
        "add_coupled_bus: inductive coupling requires line.l > 0");
  }
  std::vector<Ladder> bus;
  bus.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    bus.push_back(add_rlc_ladder(ckt, name + ".w" + std::to_string(w),
                                 from[w], to[w], line, length, nseg));
  }
  if (n == 1) return bus;
  const double dx = length / nseg;
  // d_max = max path-graph degree: the homogenization target every
  // conductor's total coupling load is padded up to.
  const int d_max = n >= 3 ? 2 : 1;
  for (std::size_t w = 0; w + 1 < n; ++w) {
    for (int i = 0; i < nseg; ++i) {
      if (coupling.cc > 0.0) {
        ckt.add_capacitor(
            name + ".cc" + std::to_string(w) + "_" + std::to_string(i),
            bus[w].nodes[i + 1], bus[w + 1].nodes[i + 1], coupling.cc * dx);
      }
      if (coupling.km != 0.0) {
        ckt.add_mutual(
            name + ".k" + std::to_string(w) + "_" + std::to_string(i),
            *bus[w].inductors[i], *bus[w + 1].inductors[i], coupling.km);
      }
    }
  }
  if (coupling.cc > 0.0) {
    for (std::size_t w = 0; w < n; ++w) {
      const int deg = (w == 0 || w + 1 == n) ? 1 : 2;
      const double shield = (d_max - deg) * coupling.cc;
      if (shield <= 0.0) continue;
      for (int i = 0; i < nseg; ++i) {
        ckt.add_capacitor(
            name + ".cs" + std::to_string(w) + "_" + std::to_string(i),
            bus[w].nodes[i + 1], ckt.ground(), shield * dx);
      }
    }
  }
  return bus;
}

CoupledStepResult run_coupled_step(const rlc::core::Technology& tech,
                                   const CouplingParams& coupling, double l,
                                   double h, double k,
                                   const std::vector<double>& initial,
                                   const std::vector<double>& target,
                                   double tstop, int steps, int nseg) {
  const std::size_t n = initial.size();
  if (n == 0 || target.size() != n) {
    throw std::invalid_argument(
        "run_coupled_step: initial/target size mismatch");
  }
  if (!(tstop > 0.0) || steps < 2) {
    throw std::invalid_argument("run_coupled_step: bad time grid");
  }
  const auto dl = tech.rep.scaled(k);

  Circuit ckt;
  std::vector<NodeId> src(n), drv(n), end(n);
  for (std::size_t w = 0; w < n; ++w) {
    const std::string ws = std::to_string(w);
    src[w] = ckt.node("src" + ws);
    drv[w] = ckt.node("drv" + ws);
    end[w] = ckt.node("end" + ws);
    if (initial[w] == target[w]) {
      ckt.add_vsource("V" + ws, src[w], ckt.ground(),
                      rlc::spice::DcSpec{target[w]});
    } else {
      ckt.add_vsource("V" + ws, src[w], ckt.ground(),
                      rlc::spice::PulseSpec{initial[w], target[w], 0.0, 1e-14,
                                            1e-14, 1.0, 0.0});
    }
    ckt.add_resistor("Rs" + ws, src[w], drv[w], dl.rs_eff);
    ckt.add_capacitor("Cp" + ws, drv[w], ckt.ground(), dl.cp_eff);
    ckt.add_capacitor("Cl" + ws, end[w], ckt.ground(), dl.cl_eff);
  }
  const std::vector<Ladder> bus =
      add_coupled_bus(ckt, "bus", drv, end, tech.line(l), coupling, h, nseg);

  rlc::spice::TransientOptions o;
  o.tstop = tstop;
  o.dt = tstop / steps;
  o.probes.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    o.probes.push_back(
        rlc::spice::Probe::node_voltage(end[w], "v" + std::to_string(w)));
    if (initial[w] != 0.0) {
      o.initial_voltages.emplace_back(src[w], initial[w]);
      o.initial_voltages.emplace_back(drv[w], initial[w]);
      o.initial_voltages.emplace_back(end[w], initial[w]);
      for (NodeId nd : bus[w].interior_nodes()) {
        o.initial_voltages.emplace_back(nd, initial[w]);
      }
    }
  }
  const auto tr = run_transient(ckt, o);
  CoupledStepResult out;
  if (!tr.completed) return out;
  out.completed = true;
  out.time = tr.time;
  out.far_end.reserve(n);
  for (std::size_t w = 0; w < n; ++w) {
    out.far_end.push_back(tr.signal("v" + std::to_string(w)));
  }
  return out;
}

}  // namespace rlc::ringosc
