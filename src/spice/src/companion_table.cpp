#include "companion_table.hpp"

#include <variant>

namespace rlc::spice::detail {

namespace {

/// Unknown `i` of x, 0 for ground (-1).
double at(const std::vector<double>& x, int i) { return i < 0 ? 0.0 : x[i]; }

}  // namespace

void CompanionTable::build(const Circuit& ckt) {
  circuit_ = &ckt;
  const auto& devices = ckt.devices();
  devices_ = devices.size();
  records_.clear();
  ic_.clear();
  step_.reset();
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const std::optional<Companion> c = devices[i]->companion();
    if (!c) continue;
    Record r;
    r.kind = c->kind;
    r.a = c->a;
    r.b = c->b;
    r.branch = c->branch;
    r.device = static_cast<int>(i);
    r.value = c->value;
    if (c->waveform != nullptr) {
      // A DC source's value is its waveform's at any time.
      if (const auto* dc = std::get_if<DcSpec>(c->waveform)) {
        r.value = dc->value;
      } else {
        r.waveform = c->waveform;
      }
    }
    records_.push_back(r);
    ic_.push_back(c->ic);
  }
}

void CompanionTable::start(const std::vector<double>& x) {
  for (std::size_t k = 0; k < records_.size(); ++k) {
    Record& r = records_[k];
    switch (r.kind) {
      case Companion::Kind::kCapacitor:
        r.h1 = ic_[k] ? *ic_[k] : at(x, r.a) - at(x, r.b);
        r.h2 = 0.0;
        break;
      case Companion::Kind::kInductor:
        r.h1 = at(x, r.a) - at(x, r.b);
        r.h2 = ic_[k] ? *ic_[k] : x[r.branch];
        break;
      case Companion::Kind::kMutual:
        r.h1 = x[r.a];
        r.h2 = x[r.b];
        break;
      case Companion::Kind::kVoltageSource:
      case Companion::Kind::kCurrentSource:
        break;
    }
  }
}

bool CompanionTable::set_step(const StampContext& ctx) {
  if (ctx.analysis == Analysis::kDc) return false;
  if (step_ && step_->first == ctx.method && step_->second == ctx.dt) {
    return true;
  }
  step_.emplace(ctx.method, ctx.dt);
  const double f = ctx.method == Integrator::kTrapezoidal ? 2.0 : 1.0;
  for (Record& r : records_) {
    if (r.kind == Companion::Kind::kCapacitor ||
        r.kind == Companion::Kind::kInductor ||
        r.kind == Companion::Kind::kMutual) {
      r.coef = f * r.value / ctx.dt;
    }
  }
  return true;
}

namespace {

/// Adds one record's terms to z, as its device's stamp did.
struct AddTerms {
  std::vector<double>& z;
  bool transient, trap;
  double t;  ///< a source's time: 0 at DC
  double scale;

  void add(int row, double v) const {
    if (row >= 0) z[row] += v;
  }

  template <class Record>
  void operator()(const Record& r) const {
    switch (r.kind) {
      case Companion::Kind::kCapacitor:
        if (transient) {  // open at DC
          // Companion current source: i(a->b) = g v - ieq, so +ieq enters a.
          const double ieq = trap ? r.coef * r.h1 + r.h2 : r.coef * r.h1;
          add(r.a, ieq);
          add(r.b, -ieq);
        }
        break;
      case Companion::Kind::kInductor:  // a short at DC
        if (transient) {
          z[r.branch] += trap ? -(r.h1 + r.coef * r.h2) : -r.coef * r.h2;
        }
        break;
      case Companion::Kind::kMutual:
        if (transient) {
          z[r.a] += -r.coef * r.h2;
          z[r.b] += -r.coef * r.h1;
        }
        break;
      case Companion::Kind::kVoltageSource:
        z[r.branch] +=
            (r.waveform ? waveform_value(*r.waveform, t) : r.value) * scale;
        break;
      case Companion::Kind::kCurrentSource: {
        const double i =
            (r.waveform ? waveform_value(*r.waveform, t) : r.value) * scale;
        add(r.a, -i);
        add(r.b, i);
        break;
      }
    }
  }
};

}  // namespace

void CompanionTable::fill(const StampContext& ctx, std::vector<double>& z) {
  const bool transient = set_step(ctx);
  const AddTerms terms{z, transient, ctx.method == Integrator::kTrapezoidal,
                       transient ? ctx.time : 0.0, ctx.source_scale};
  for (const Record& r : records_) terms(r);
}

std::size_t CompanionTable::fill_until(const StampContext& ctx,
                                       std::vector<double>& z,
                                       std::size_t from,
                                       std::size_t device_end) {
  const bool transient = set_step(ctx);
  const AddTerms terms{z, transient, ctx.method == Integrator::kTrapezoidal,
                       transient ? ctx.time : 0.0, ctx.source_scale};
  std::size_t k = from;
  for (; k < records_.size() &&
         static_cast<std::size_t>(records_[k].device) < device_end;
       ++k) {
    terms(records_[k]);
  }
  return k;
}

void CompanionTable::commit(const StampContext& ctx,
                            const std::vector<double>& x) {
  set_step(ctx);
  const bool trap = ctx.method == Integrator::kTrapezoidal;
  for (Record& r : records_) {
    switch (r.kind) {
      case Companion::Kind::kCapacitor: {
        const double v_new = at(x, r.a) - at(x, r.b);
        const double ieq = trap ? r.coef * r.h1 + r.h2 : r.coef * r.h1;
        r.h2 = r.coef * v_new - ieq;
        r.h1 = v_new;
        break;
      }
      case Companion::Kind::kInductor:
        r.h1 = at(x, r.a) - at(x, r.b);
        r.h2 = x[r.branch];
        break;
      case Companion::Kind::kMutual:
        r.h1 = x[r.a];
        r.h2 = x[r.b];
        break;
      case Companion::Kind::kVoltageSource:
      case Companion::Kind::kCurrentSource:
        break;
    }
  }
}

}  // namespace rlc::spice::detail
