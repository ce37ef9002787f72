#include "rlc/spice/coupled.hpp"

#include <cmath>
#include <stdexcept>

namespace rlc::spice {

// -------------------------------------------------------- MutualInductance

MutualInductance::MutualInductance(std::string name, Inductor& l1,
                                   Inductor& l2, double coupling)
    : Device(std::move(name)), l1_(&l1), l2_(&l2) {
  if (!(std::abs(coupling) < 1.0) || coupling == 0.0) {
    throw std::domain_error(
        "MutualInductance: coupling must be nonzero with |k| < 1");
  }
  m_ = coupling * std::sqrt(l1.inductance() * l2.inductance());
}

void MutualInductance::stamp(const StampContext& ctx, Stamper& st) const {
  if (ctx.analysis == Analysis::kDc) return;  // inductors are DC shorts
  const int br1 = l1_->branch_base();
  const int br2 = l2_->branch_base();
  const bool trap = ctx.method == Integrator::kTrapezoidal;
  const double rm = (trap ? 2.0 : 1.0) * m_ / ctx.dt;
  // Each inductor's branch row gains a -rm * i_other term on the left and
  // the matching history on the right (the companion table's; the mutual
  // terms discretize as the inductor's own do).
  st.add(br1, br2, -rm);
  st.add(br2, br1, -rm);
}

void MutualInductance::stamp_ac(const AcContext& ctx, AcStamper& st) const {
  const int br1 = l1_->branch_base();
  const int br2 = l2_->branch_base();
  const std::complex<double> z{0.0, -ctx.omega * m_};
  st.add(br1, br2, z);
  st.add(br2, br1, z);
}

std::optional<Companion> MutualInductance::companion() const {
  Companion c;
  c.kind = Companion::Kind::kMutual;
  c.a = l1_->branch_base();
  c.b = l2_->branch_base();
  c.value = m_;
  return c;
}

// -------------------------------------------------------------------- Vcvs

Vcvs::Vcvs(std::string name, NodeId p, NodeId n, NodeId cp, NodeId cn,
           double gain)
    : Device(std::move(name)), p_(p), n_(n), cp_(cp), cn_(cn), gain_(gain) {}

void Vcvs::stamp(const StampContext& ctx, Stamper& st) const {
  (void)ctx;
  const int ip = Stamper::unk(p_), in = Stamper::unk(n_);
  const int icp = Stamper::unk(cp_), icn = Stamper::unk(cn_);
  const int br = branch_base();
  st.add(ip, br, 1.0);
  st.add(in, br, -1.0);
  // Branch equation: v(p) - v(n) - gain (v(cp) - v(cn)) = 0.
  st.add(br, ip, 1.0);
  st.add(br, in, -1.0);
  st.add(br, icp, -gain_);
  st.add(br, icn, gain_);
}

void Vcvs::stamp_ac(const AcContext& ctx, AcStamper& st) const {
  (void)ctx;
  const int ip = Stamper::unk(p_), in = Stamper::unk(n_);
  const int icp = Stamper::unk(cp_), icn = Stamper::unk(cn_);
  const int br = branch_base();
  st.add(ip, br, 1.0);
  st.add(in, br, -1.0);
  st.add(br, ip, 1.0);
  st.add(br, in, -1.0);
  st.add(br, icp, -gain_);
  st.add(br, icn, gain_);
}

// -------------------------------------------------------------------- Vccs

Vccs::Vccs(std::string name, NodeId p, NodeId n, NodeId cp, NodeId cn,
           double gm)
    : Device(std::move(name)), p_(p), n_(n), cp_(cp), cn_(cn), gm_(gm) {}

void Vccs::stamp(const StampContext& ctx, Stamper& st) const {
  (void)ctx;
  const int ip = Stamper::unk(p_), in = Stamper::unk(n_);
  const int icp = Stamper::unk(cp_), icn = Stamper::unk(cn_);
  // Current gm (v(cp) - v(cn)) leaves p and enters n.
  st.add(ip, icp, gm_);
  st.add(ip, icn, -gm_);
  st.add(in, icp, -gm_);
  st.add(in, icn, gm_);
}

void Vccs::stamp_ac(const AcContext& ctx, AcStamper& st) const {
  (void)ctx;
  const int ip = Stamper::unk(p_), in = Stamper::unk(n_);
  const int icp = Stamper::unk(cp_), icn = Stamper::unk(cn_);
  st.add(ip, icp, gm_);
  st.add(ip, icn, -gm_);
  st.add(in, icp, -gm_);
  st.add(in, icn, gm_);
}

}  // namespace rlc::spice
