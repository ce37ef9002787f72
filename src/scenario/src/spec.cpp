#include "rlc/scenario/spec.hpp"

#include <cctype>
#include <cmath>
#include <stdexcept>
#include <string_view>

namespace rlc::scenario {

namespace {

io::JsonArray to_json_array(const std::vector<double>& v) {
  io::JsonArray a;
  for (double x : v) a.push(x);
  return a;
}

}  // namespace

std::vector<double> SweepSpec::values() const {
  if (const rlc::Status st = validate(); !st.is_ok()) {
    throw std::invalid_argument(st.to_string());
  }
  if (!explicit_l.empty()) return explicit_l;
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(points));
  if (points == 1) {
    out.push_back(l_min);
    return out;
  }
  // Same arithmetic as the historical bench::inductance_sweep helper
  // (l_max * i / n with l_min == 0), so figure grids are bit-identical.
  for (int i = 0; i < points; ++i) {
    out.push_back(l_min + (l_max - l_min) * static_cast<double>(i) /
                              static_cast<double>(points - 1));
  }
  return out;
}

rlc::Status SweepSpec::validate() const {
  const auto bad = [](const char* what) {
    return rlc::Status::invalid_argument(what);
  };
  if (!explicit_l.empty()) {
    for (double l : explicit_l) {
      if (!std::isfinite(l) || l < 0.0) {
        return bad("sweep.explicit_l values must be finite and >= 0");
      }
    }
    return rlc::Status::ok();
  }
  if (points < 1) return bad("sweep.points must be >= 1");
  if (!std::isfinite(l_min) || !std::isfinite(l_max)) {
    return bad("sweep bounds must be finite");
  }
  if (l_min < 0.0) return bad("sweep.l_min must be >= 0");
  if (l_max < l_min) return bad("sweep.l_max must be >= sweep.l_min");
  if (points > 1 && l_max == l_min) {
    return bad("sweep with points > 1 needs l_max > l_min");
  }
  return rlc::Status::ok();
}

rlc::Status ScenarioSpec::validate() const {
  const auto bad = [](std::string what) {
    return rlc::Status::invalid_argument(std::move(what));
  };
  if (scenario.empty()) return bad("spec.scenario must be set");
  if (const rlc::Status st = sweep.validate(); !st.is_ok()) return st;
  try {
    technology_by_name(technology);  // throws for unknown ids
  } catch (const std::exception& e) {
    return bad(e.what());
  }
  if (!(threshold > 0.0 && threshold < 1.0)) {
    return bad("spec.threshold must be in (0, 1)");
  }
  if (segments_per_line < 1) return bad("spec.segments_per_line must be >= 1");
  if (ring_stages < 3 || ring_stages % 2 == 0) {
    return bad("spec.ring_stages must be odd and >= 3");
  }
  if (max_newton_iterations < 1) {
    return bad("spec.max_newton_iterations must be >= 1");
  }
  if (!(residual_tol > 0.0)) return bad("spec.residual_tol must be > 0");
  if (talbot_points < 8) return bad("spec.talbot_points must be >= 8");
  return rlc::Status::ok();
}

core::OptimOptions ScenarioSpec::optim_options() const {
  core::OptimOptions o;
  o.f = threshold;
  o.max_iterations = max_newton_iterations;
  o.residual_tolerance = residual_tol;
  return o;
}

core::ExactOptions ScenarioSpec::exact_options() const {
  core::ExactOptions o;
  o.talbot_points = talbot_points;
  o.window_points = talbot_points;
  return o;
}

io::Json ScenarioSpec::to_json() const {
  io::Json sweep_j;
  sweep_j.set("l_min", sweep.l_min);
  sweep_j.set("l_max", sweep.l_max);
  sweep_j.set("points", sweep.points);
  if (!sweep.explicit_l.empty()) {
    sweep_j.set("explicit_l", to_json_array(sweep.explicit_l));
  }
  io::Json j;
  j.set("scenario", scenario);
  j.set("technology", technology);
  j.set("sweep", sweep_j);
  j.set("threshold", threshold);
  j.set("segments_per_line", segments_per_line);
  j.set("ring_stages", ring_stages);
  j.set("quick", quick);
  j.set("max_newton_iterations", max_newton_iterations);
  j.set("residual_tol", residual_tol);
  j.set("talbot_points", talbot_points);
  return j;
}

rlc::StatusOr<ScenarioSpec> ScenarioSpec::from_json(const io::JsonValue& v) {
  if (v.kind() != io::JsonValue::Kind::kObject) {
    return rlc::Status::invalid_argument("spec must be a JSON object");
  }
  ScenarioSpec spec;
  const io::JsonValue* sw = v.find("sweep");
  if (sw && sw->is_null()) sw = nullptr;  // null keeps the default sweep
  if (sw && sw->kind() != io::JsonValue::Kind::kObject) {
    return rlc::Status::invalid_argument("spec.sweep must be an object");
  }
  constexpr std::string_view kSpec = "spec.", kSweep = "spec.sweep.";
  SweepSpec& s = spec.sweep;
  std::string err;  // the first bad field stops the chain
  const bool ok =
      io::take_string(v, "scenario", &spec.scenario, &err, kSpec) &&
      io::take_string(v, "technology", &spec.technology, &err, kSpec) &&
      (!sw ||
       (io::take_number(*sw, "l_min", &s.l_min, &err, kSweep) &&
        io::take_number(*sw, "l_max", &s.l_max, &err, kSweep) &&
        io::take_int(*sw, "points", &s.points, &err, kSweep) &&
        io::take_numbers(*sw, "explicit_l", &s.explicit_l, &err, kSweep))) &&
      io::take_number(v, "threshold", &spec.threshold, &err, kSpec) &&
      io::take_int(v, "segments_per_line", &spec.segments_per_line, &err,
                   kSpec) &&
      io::take_int(v, "ring_stages", &spec.ring_stages, &err, kSpec) &&
      io::take_bool(v, "quick", &spec.quick, &err, kSpec) &&
      io::take_int(v, "max_newton_iterations", &spec.max_newton_iterations,
                   &err, kSpec) &&
      io::take_number(v, "residual_tol", &spec.residual_tol, &err, kSpec) &&
      io::take_int(v, "talbot_points", &spec.talbot_points, &err, kSpec);
  if (!ok) return rlc::Status::invalid_argument(err);
  if (rlc::Status st = spec.validate(); !st.is_ok()) return st;
  return spec;
}

rlc::StatusOr<ScenarioSpec> ScenarioSpec::from_json_text(
    const std::string& text) {
  try {
    return from_json(io::parse_json(text));
  } catch (const std::exception& e) {
    return rlc::Status::invalid_argument(e.what());
  }
}

core::Technology technology_by_name(const std::string& name) {
  if (name == "250nm" || name == "250") return core::Technology::nm250();
  if (name == "100nm" || name == "100") return core::Technology::nm100();
  if (name == "100nm_c250") {
    return core::Technology::nm100_with_250nm_dielectric();
  }
  // "<N>nm" or a bare number: the interpolated node at N nanometers.
  std::string digits = name;
  if (digits.size() > 2 && digits.compare(digits.size() - 2, 2, "nm") == 0) {
    digits.resize(digits.size() - 2);
  }
  if (!digits.empty()) {
    bool numeric = true;
    bool dot = false;
    for (char ch : digits) {
      if (ch == '.' && !dot) {
        dot = true;
      } else if (!std::isdigit(static_cast<unsigned char>(ch))) {
        numeric = false;
        break;
      }
    }
    if (numeric) {
      const double nm = std::stod(digits);
      if (nm > 0.0) return core::Technology::interpolated(nm * 1e-9);
    }
  }
  throw std::invalid_argument(
      "rlc::scenario: unknown technology id \"" + name +
      "\" (expected 250nm, 100nm, 100nm_c250, or <N>nm)");
}

}  // namespace rlc::scenario
