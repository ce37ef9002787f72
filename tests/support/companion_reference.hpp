#pragma once

/// \file companion_reference.hpp
/// Test-support reference for the companion table (no library code calls
/// it): the right-hand side and companion history as each linear device
/// kept them itself, in its own stamp() and history members, before the
/// analyses kept one table of them.  detail::CompanionTable is pinned to it
/// bit for bit.

#include <optional>
#include <vector>

#include "rlc/spice/circuit.hpp"

namespace rlc::spice {

/// The former per-device formulas, with one history slot per device.
class ReferenceCompanions {
 public:
  /// Slots for the devices of the finalized `ckt`, which must outlive this.
  explicit ReferenceCompanions(const Circuit& ckt);

  /// The former Device::init_history: history of the t = 0 state x.
  void init_history(const std::vector<double>& x);
  /// The former Device::commit_step: ctx.x is the accepted solution.
  void commit_step(const StampContext& ctx);
  /// The MNA right-hand side at ctx as the former stamps summed it: every
  /// device in device order, each nonlinear one through stamp() at ctx.x,
  /// each linear one through its former right-hand-side terms.
  std::vector<double> rhs(const StampContext& ctx) const;

 private:
  struct History {
    double v_prev = 0.0, i_prev = 0.0;    ///< capacitor, inductor
    double i1_prev = 0.0, i2_prev = 0.0;  ///< mutual inductance
  };

  const Circuit& ckt_;
  std::vector<std::optional<Companion>> companions_;  ///< per device
  std::vector<History> history_;                      ///< per device
};

}  // namespace rlc::spice
