#pragma once

/// Internal: the right-hand side of an analysis' linear devices and their
/// companion history, in one flat table.

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "rlc/spice/circuit.hpp"

namespace rlc::spice::detail {

/// One record per device whose companion() describes a right-hand side, in
/// device order, each with its companion history.  Built once per analysis;
/// per step one pass fills z (a switch on the record's kind, no virtual
/// call) and, once the step is accepted, one pass advances the history.
/// Each record's terms and history follow the formulas Companion lists,
/// with the coefficients f·C/dt, f·L/dt and f·M/dt cached for the
/// integrator and step of the last call.  A pass adds a record's terms to z
/// as its device's stamp would have, so every row sums in device order.
class CompanionTable {
 public:
  /// Records for the devices of the finalized `ckt`, with zero history.
  void build(const Circuit& ckt);
  /// True when built from `ckt` with its current device list.
  bool built_for(const Circuit& ckt) const {
    return circuit_ == &ckt && devices_ == ckt.devices().size();
  }
  /// History of the t = 0 state x: a UIC start or the DC operating point.
  void start(const std::vector<double>& x);
  /// z += the terms of every record at ctx.  Reads the time, analysis,
  /// integrator, dt and source scale of ctx, never its iterate.
  void fill(const StampContext& ctx, std::vector<double>& z);
  /// fill() of the records from `from` on, up to the first one of device
  /// `device_end` or later; returns the index it stopped at.
  std::size_t fill_until(const StampContext& ctx, std::vector<double>& z,
                         std::size_t from, std::size_t device_end);
  /// Accepts x as the transient solution at ctx: advances the history.
  void commit(const StampContext& ctx, const std::vector<double>& x);

  std::size_t size() const { return records_.size(); }

 private:
  struct Record {
    Companion::Kind kind = Companion::Kind::kCapacitor;
    int a = -1, b = -1, branch = -1;  ///< as in Companion
    int device = 0;  ///< index in the circuit's device list
    double coef = 0.0;  ///< f·value/dt of the cached integrator and step
    /// The history: v_prev and i_prev of a capacitor or inductor; the
    /// previous currents of a mutual inductance's branches a and b.
    double h1 = 0.0, h2 = 0.0;
    const Waveform* waveform = nullptr;  ///< a source's, unless DC
    double value = 0.0;  ///< C, L, M, or a DC source's value
  };

  /// Sets the cached coefficients for the step of ctx when they are not;
  /// false at DC, which needs none.
  bool set_step(const StampContext& ctx);

  const Circuit* circuit_ = nullptr;
  std::size_t devices_ = 0;
  std::vector<Record> records_;
  std::vector<std::optional<double>> ic_;  ///< per record, for start()
  std::optional<std::pair<Integrator, double>> step_;
};

}  // namespace rlc::spice::detail
