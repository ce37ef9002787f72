#include "rlc/spice/ac.hpp"

#include <cmath>
#include <stdexcept>

#include "probe_check.hpp"
#include "rlc/linalg/lu.hpp"
#include "rlc/math/constants.hpp"
#include "rlc/spice/dcop.hpp"

namespace rlc::spice {

const std::vector<std::complex<double>>& AcResult::signal(
    const std::string& label) const {
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == label) return signals[i];
  }
  throw std::out_of_range("AcResult::signal: no probe labelled '" + label + "'");
}

std::vector<double> log_frequencies(double f_start, double f_stop,
                                    int points_per_decade) {
  if (!(f_start > 0.0) || !(f_stop > f_start) || points_per_decade < 1) {
    throw std::invalid_argument("log_frequencies: invalid sweep spec");
  }
  std::vector<double> out;
  const double decades = std::log10(f_stop / f_start);
  const int n = static_cast<int>(std::ceil(decades * points_per_decade));
  for (int i = 0; i <= n; ++i) {
    out.push_back(f_start * std::pow(10.0, decades * i / n));
  }
  return out;
}

namespace {

std::complex<double> eval_probe(const Probe& p,
                                const std::vector<std::complex<double>>& x) {
  switch (p.kind) {
    case Probe::Kind::kNodeVoltage:
      return p.node == 0 ? 0.0 : x[p.node - 1];
    case Probe::Kind::kBranchCurrent:
      return x[p.device->branch_base()];
    case Probe::Kind::kResistorCurrent: {
      const auto* r = static_cast<const Resistor*>(p.device);
      const auto v = [&x](NodeId n) {
        return n == 0 ? std::complex<double>{} : x[n - 1];
      };
      return (v(r->node_a()) - v(r->node_b())) / r->resistance();
    }
  }
  return {};
}

}  // namespace

AcResult run_ac(Circuit& ckt, const AcOptions& opts) {
  if (opts.frequencies.empty()) {
    throw std::invalid_argument("run_ac: no frequencies given");
  }
  for (double f : opts.frequencies) {
    if (!(f > 0.0)) throw std::invalid_argument("run_ac: frequencies must be > 0");
  }
  ckt.finalize();
  const int n = ckt.unknown_count();
  detail::check_probes(ckt, opts.probes, "run_ac");

  AcContext ctx;
  std::vector<double> op;
  if (opts.compute_dc_op) {
    const DcResult dc = dc_operating_point(ckt);
    if (!dc.converged) throw std::runtime_error("run_ac: DC operating point failed");
    op = dc.x;
    ctx.op = &op;
  }

  std::vector<Probe> probes = opts.probes;
  if (probes.empty()) {
    for (NodeId nd = 1; nd < ckt.node_count(); ++nd) {
      probes.push_back(Probe::node_voltage(nd, "v(" + ckt.node_name(nd) + ")"));
    }
  }

  AcResult res;
  res.freq = opts.frequencies;
  for (const auto& p : probes) res.labels.push_back(p.label);
  res.signals.assign(probes.size(), {});

  rlc::linalg::MatrixC A(n, n);
  std::vector<std::complex<double>> rhs(n);
  for (double f : opts.frequencies) {
    ctx.omega = 2.0 * rlc::math::kPi * f;
    A.set_zero();
    std::fill(rhs.begin(), rhs.end(), std::complex<double>{});
    AcStamper st(A, rhs);
    for (const auto& dev : ckt.devices()) dev->stamp_ac(ctx, st);
    // Tiny shunt for floating-node robustness, mirroring the transient path.
    for (int i = 0; i < ckt.node_count() - 1; ++i) A(i, i) += 1e-12;
    const rlc::linalg::LUC lu(A);
    const auto x = lu.solve(rhs);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      res.signals[i].push_back(eval_probe(probes[i], x));
    }
  }
  res.completed = true;
  return res;
}

}  // namespace rlc::spice
