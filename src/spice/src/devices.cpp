#include "rlc/spice/devices.hpp"

#include <stdexcept>

namespace rlc::spice {

// ---------------------------------------------------------------- Resistor

Resistor::Resistor(std::string name, NodeId a, NodeId b, double ohms)
    : Device(std::move(name)), a_(a), b_(b), ohms_(ohms) {
  if (!(ohms > 0.0)) throw std::domain_error("Resistor: resistance must be > 0");
}

void Resistor::stamp(const StampContext& ctx, Stamper& st) const {
  (void)ctx;
  const double g = 1.0 / ohms_;
  const int ia = Stamper::unk(a_), ib = Stamper::unk(b_);
  st.add(ia, ia, g);
  st.add(ib, ib, g);
  st.add(ia, ib, -g);
  st.add(ib, ia, -g);
}

void Resistor::stamp_ac(const AcContext& ctx, AcStamper& st) const {
  (void)ctx;
  const double g = 1.0 / ohms_;
  const int ia = Stamper::unk(a_), ib = Stamper::unk(b_);
  st.add(ia, ia, g);
  st.add(ib, ib, g);
  st.add(ia, ib, -g);
  st.add(ib, ia, -g);
}

double Resistor::current(const std::vector<double>& x) const {
  const double va = a_ == 0 ? 0.0 : x[a_ - 1];
  const double vb = b_ == 0 ? 0.0 : x[b_ - 1];
  return (va - vb) / ohms_;
}

// --------------------------------------------------------------- Capacitor

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double farads,
                     std::optional<double> ic)
    : Device(std::move(name)), a_(a), b_(b), farads_(farads), ic_(ic) {
  if (!(farads > 0.0)) throw std::domain_error("Capacitor: capacitance must be > 0");
}

void Capacitor::stamp(const StampContext& ctx, Stamper& st) const {
  if (ctx.analysis == Analysis::kDc) return;  // open at DC
  const double g =
      (ctx.method == Integrator::kTrapezoidal ? 2.0 : 1.0) * farads_ / ctx.dt;
  const int ia = Stamper::unk(a_), ib = Stamper::unk(b_);
  st.add(ia, ia, g);
  st.add(ib, ib, g);
  st.add(ia, ib, -g);
  st.add(ib, ia, -g);
}

void Capacitor::stamp_ac(const AcContext& ctx, AcStamper& st) const {
  const std::complex<double> y{0.0, ctx.omega * farads_};
  const int ia = Stamper::unk(a_), ib = Stamper::unk(b_);
  st.add(ia, ia, y);
  st.add(ib, ib, y);
  st.add(ia, ib, -y);
  st.add(ib, ia, -y);
}

std::optional<Companion> Capacitor::companion() const {
  Companion c;
  c.kind = Companion::Kind::kCapacitor;
  c.a = Stamper::unk(a_);
  c.b = Stamper::unk(b_);
  c.value = farads_;
  c.ic = ic_;
  return c;
}

// ---------------------------------------------------------------- Inductor

Inductor::Inductor(std::string name, NodeId a, NodeId b, double henries,
                   std::optional<double> ic)
    : Device(std::move(name)), a_(a), b_(b), henries_(henries), ic_(ic) {
  if (!(henries > 0.0)) throw std::domain_error("Inductor: inductance must be > 0");
}

void Inductor::stamp(const StampContext& ctx, Stamper& st) const {
  const int ia = Stamper::unk(a_), ib = Stamper::unk(b_);
  const int br = branch_base();
  // Branch current enters the node equations.
  st.add(ia, br, 1.0);
  st.add(ib, br, -1.0);
  // Branch (voltage) equation row.
  st.add(br, ia, 1.0);
  st.add(br, ib, -1.0);
  if (ctx.analysis == Analysis::kDc) {
    // Short at DC: v(a) - v(b) = 0 (row complete as-is).
    return;
  }
  const bool trap = ctx.method == Integrator::kTrapezoidal;
  const double req = (trap ? 2.0 : 1.0) * henries_ / ctx.dt;
  st.add(br, br, -req);
}

void Inductor::stamp_ac(const AcContext& ctx, AcStamper& st) const {
  const int ia = Stamper::unk(a_), ib = Stamper::unk(b_);
  const int br = branch_base();
  st.add(ia, br, 1.0);
  st.add(ib, br, -1.0);
  st.add(br, ia, 1.0);
  st.add(br, ib, -1.0);
  st.add(br, br, std::complex<double>{0.0, -ctx.omega * henries_});
}

std::optional<Companion> Inductor::companion() const {
  Companion c;
  c.kind = Companion::Kind::kInductor;
  c.a = Stamper::unk(a_);
  c.b = Stamper::unk(b_);
  c.branch = branch_base();
  c.value = henries_;
  c.ic = ic_;
  return c;
}

// ----------------------------------------------------------------- VSource

VSource::VSource(std::string name, NodeId p, NodeId n, Waveform w,
                 double ac_magnitude)
    : Device(std::move(name)), p_(p), n_(n), waveform_(std::move(w)),
      ac_magnitude_(ac_magnitude) {}

void VSource::stamp(const StampContext& ctx, Stamper& st) const {
  (void)ctx;
  const int ip = Stamper::unk(p_), in = Stamper::unk(n_);
  const int br = branch_base();
  st.add(ip, br, 1.0);
  st.add(in, br, -1.0);
  st.add(br, ip, 1.0);
  st.add(br, in, -1.0);
}

std::optional<Companion> VSource::companion() const {
  Companion c;
  c.kind = Companion::Kind::kVoltageSource;
  c.branch = branch_base();
  c.waveform = &waveform_;
  return c;
}

void VSource::stamp_ac(const AcContext& ctx, AcStamper& st) const {
  (void)ctx;
  const int ip = Stamper::unk(p_), in = Stamper::unk(n_);
  const int br = branch_base();
  st.add(ip, br, 1.0);
  st.add(in, br, -1.0);
  st.add(br, ip, 1.0);
  st.add(br, in, -1.0);
  st.add_rhs(br, ac_magnitude_);
}

// ----------------------------------------------------------------- ISource

ISource::ISource(std::string name, NodeId p, NodeId n, Waveform w,
                 double ac_magnitude)
    : Device(std::move(name)), p_(p), n_(n), waveform_(std::move(w)),
      ac_magnitude_(ac_magnitude) {}

void ISource::stamp(const StampContext& ctx, Stamper& st) const {
  (void)ctx;
  (void)st;
}

std::optional<Companion> ISource::companion() const {
  // Current flows p -> n through the source: leaves p, enters n.
  Companion c;
  c.kind = Companion::Kind::kCurrentSource;
  c.a = Stamper::unk(p_);
  c.b = Stamper::unk(n_);
  c.waveform = &waveform_;
  return c;
}

void ISource::stamp_ac(const AcContext& ctx, AcStamper& st) const {
  (void)ctx;
  st.add_rhs(Stamper::unk(p_), -ac_magnitude_);
  st.add_rhs(Stamper::unk(n_), ac_magnitude_);
}

}  // namespace rlc::spice
