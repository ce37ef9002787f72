#pragma once

/// \file spec.hpp
/// Typed experiment request: every figure/table/ablation/extension/perf
/// experiment in the repo is driven by a ScenarioSpec — technology id,
/// inductance-sweep definition, solver/exact-engine/SPICE options, and
/// thresholds — validated up front and round-trippable through JSON.  This
/// is the request half of the request/response shape the scenario registry
/// serves (ScenarioResult is the response half).
///
/// The sweep grid definition lives HERE and only here: the former
/// bench::inductance_sweep helper is SweepSpec{0, 5e-6, n + 1}.values().

#include <string>
#include <vector>

#include "rlc/base/status.hpp"
#include "rlc/core/exact_delay.hpp"
#include "rlc/core/optimizer.hpp"
#include "rlc/core/technology.hpp"
#include "rlc/io/json.hpp"
#include "rlc/io/json_reader.hpp"

namespace rlc::scenario {

/// Display-unit conversion used throughout the experiment tables.
inline double to_nH_per_mm(double l_si) { return l_si * 1e6; }

/// Per-unit-length inductance grid.  Either a uniform grid of `points`
/// values over [l_min, l_max] (the paper's 0..5 nH/mm sweep by default) or
/// an explicit list.  The uniform grid reproduces the legacy
/// bench::inductance_sweep arithmetic bit-for-bit:
/// l_i = l_min + (l_max - l_min) * i / (points - 1).
struct SweepSpec {
  double l_min = 0.0;               ///< [H/m]
  double l_max = 5.0e-6;            ///< [H/m]
  int points = 26;                  ///< grid size (>= 1)
  std::vector<double> explicit_l;   ///< non-empty: overrides the grid

  /// The grid; throws std::invalid_argument when the spec is invalid
  /// (callers that want a typed error validate() first).
  std::vector<double> values() const;

  /// OK or invalid_argument with the first violated constraint.  Part of
  /// the redesigned Status boundary: spec validation REPORTS rather than
  /// throws, so serving front-ends can reject requests without unwinding.
  rlc::Status validate() const;

  bool operator==(const SweepSpec&) const = default;
};

/// One experiment request.  Defaults reproduce the legacy bench behaviour;
/// each registered scenario carries its own tuned defaults.
struct ScenarioSpec {
  std::string scenario;              ///< registered scenario name
  std::string technology = "100nm";  ///< see technology_by_name (scenarios
                                     ///< spanning fixed node sets ignore it)
  SweepSpec sweep{};
  double threshold = 0.5;      ///< delay threshold fraction, in (0, 1)
  int segments_per_line = 12;  ///< pi-ladder segments for SPICE experiments
  int ring_stages = 5;         ///< ring-oscillator stages (odd)
  bool quick = false;          ///< reduced grids for CI smoke runs
  int max_newton_iterations = 80;
  double residual_tol = 1e-9;
  int talbot_points = 48;      ///< exact-engine contour size

  /// OK or invalid_argument with the first violated constraint.
  rlc::Status validate() const;

  /// Solver options implied by this spec (legacy benches used the same
  /// defaults, so default-spec scenarios match them bit-for-bit).
  core::OptimOptions optim_options() const;
  core::ExactOptions exact_options() const;

  io::Json to_json() const;

  /// Parse + validate.  invalid_argument covers both malformed JSON shapes
  /// and out-of-domain values; no exception escapes (boundary rule,
  /// DESIGN.md "Errors").
  static rlc::StatusOr<ScenarioSpec> from_json(const io::JsonValue& v);
  static rlc::StatusOr<ScenarioSpec> from_json_text(const std::string& text);

  bool operator==(const ScenarioSpec&) const = default;
};

/// Resolve a technology id: "250nm"/"250", "100nm"/"100",
/// "100nm_c250" (the Figure 7 control: 100 nm with the 250 nm dielectric),
/// or "<N>nm" / a bare number for the interpolated node (e.g. "180nm").
/// Throws std::invalid_argument for anything else.
core::Technology technology_by_name(const std::string& name);

}  // namespace rlc::scenario
