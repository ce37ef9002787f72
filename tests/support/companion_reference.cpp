#include "support/companion_reference.hpp"

namespace rlc::spice {

namespace {

using Kind = Companion::Kind;

double v_at(const StampContext& ctx, int unknown) {
  return unknown < 0 ? 0.0 : ctx.unknown(unknown);
}

double geq(const Companion& c, const StampContext& ctx) {
  return (ctx.method == Integrator::kTrapezoidal ? 2.0 : 1.0) * c.value /
         ctx.dt;
}

}  // namespace

ReferenceCompanions::ReferenceCompanions(const Circuit& ckt) : ckt_(ckt) {
  for (const auto& dev : ckt.devices()) {
    companions_.push_back(dev->companion());
  }
  history_.resize(companions_.size());
}

void ReferenceCompanions::init_history(const std::vector<double>& x) {
  StampContext ctx;
  ctx.x = &x;
  for (std::size_t i = 0; i < companions_.size(); ++i) {
    if (!companions_[i]) continue;
    const Companion& c = *companions_[i];
    History& h = history_[i];
    switch (c.kind) {
      case Kind::kCapacitor:
        h.v_prev = c.ic ? *c.ic : (v_at(ctx, c.a) - v_at(ctx, c.b));
        h.i_prev = 0.0;
        break;
      case Kind::kInductor:
        h.v_prev = v_at(ctx, c.a) - v_at(ctx, c.b);
        h.i_prev = c.ic ? *c.ic : ctx.unknown(c.branch);
        break;
      case Kind::kMutual:
        h.i1_prev = ctx.unknown(c.a);
        h.i2_prev = ctx.unknown(c.b);
        break;
      case Kind::kVoltageSource:
      case Kind::kCurrentSource:
        break;
    }
  }
}

void ReferenceCompanions::commit_step(const StampContext& ctx) {
  for (std::size_t i = 0; i < companions_.size(); ++i) {
    if (!companions_[i]) continue;
    const Companion& c = *companions_[i];
    History& h = history_[i];
    switch (c.kind) {
      case Kind::kCapacitor: {
        const double g = geq(c, ctx);
        const double ieq_hist = ctx.method == Integrator::kTrapezoidal
                                    ? g * h.v_prev + h.i_prev
                                    : g * h.v_prev;
        const double v_new = v_at(ctx, c.a) - v_at(ctx, c.b);
        h.i_prev = g * v_new - ieq_hist;
        h.v_prev = v_new;
        break;
      }
      case Kind::kInductor:
        h.v_prev = v_at(ctx, c.a) - v_at(ctx, c.b);
        h.i_prev = ctx.unknown(c.branch);
        break;
      case Kind::kMutual:
        h.i1_prev = ctx.unknown(c.a);
        h.i2_prev = ctx.unknown(c.b);
        break;
      case Kind::kVoltageSource:
      case Kind::kCurrentSource:
        break;
    }
  }
}

std::vector<double> ReferenceCompanions::rhs(const StampContext& ctx) const {
  std::vector<double> z(static_cast<std::size_t>(ckt_.unknown_count()), 0.0);
  std::vector<linalg::Triplet> triplets;
  Stamper st(triplets, z);
  const bool dc = ctx.analysis == Analysis::kDc;
  const bool trap = ctx.method == Integrator::kTrapezoidal;
  const auto& devices = ckt_.devices();
  for (std::size_t i = 0; i < devices.size(); ++i) {
    devices[i]->stamp(ctx, st);  // a nonlinear device's right-hand side
    if (!companions_[i]) continue;
    const Companion& c = *companions_[i];
    const History& h = history_[i];
    switch (c.kind) {
      case Kind::kCapacitor: {
        if (dc) break;  // open at DC
        const double g = geq(c, ctx);
        const double ieq = trap ? g * h.v_prev + h.i_prev : g * h.v_prev;
        st.add_rhs(c.a, ieq);
        st.add_rhs(c.b, -ieq);
        break;
      }
      case Kind::kInductor: {
        if (dc) break;  // short at DC
        const double req = (trap ? 2.0 : 1.0) * c.value / ctx.dt;
        st.add_rhs(c.branch,
                   trap ? -(h.v_prev + req * h.i_prev) : -req * h.i_prev);
        break;
      }
      case Kind::kMutual: {
        if (dc) break;
        const double rm = (trap ? 2.0 : 1.0) * c.value / ctx.dt;
        st.add_rhs(c.a, -rm * h.i2_prev);
        st.add_rhs(c.b, -rm * h.i1_prev);
        break;
      }
      case Kind::kVoltageSource: {
        const double v = dc ? waveform_dc_value(*c.waveform)
                            : waveform_value(*c.waveform, ctx.time);
        st.add_rhs(c.branch, v * ctx.source_scale);
        break;
      }
      case Kind::kCurrentSource: {
        const double i = (dc ? waveform_dc_value(*c.waveform)
                             : waveform_value(*c.waveform, ctx.time)) *
                         ctx.source_scale;
        st.add_rhs(c.a, -i);
        st.add_rhs(c.b, i);
        break;
      }
    }
  }
  return z;
}

}  // namespace rlc::spice
