/// Delay / power trade-off explorer: how much repeater-chain power can be
/// saved by backing off from the delay-optimal (h, k) — the practical
/// question downstream of the paper's optimizer.  The rows are the
/// non-dominated delay-power front that core::pareto_front finds over a
/// log-spaced (h, k) box around the delay optimum, with the power objective
/// of rlc/core/power.hpp (dynamic + short-circuit + leakage).
///
/// The request is expressed as a rlc::scenario::ScenarioSpec, the same typed
/// spec the rlc_run experiments use, so any technology id the scenario layer
/// resolves works here ("250", "100", or an interpolated node like "180nm").
///
///   $ ./tradeoff_explorer [l_nH_mm] [node]
///   $ ./tradeoff_explorer 1.5 180nm

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "rlc/core/optimize_api.hpp"
#include "rlc/scenario/spec.hpp"

int main(int argc, char** argv) {
  using namespace rlc::core;
  namespace scn = rlc::scenario;

  scn::ScenarioSpec spec;
  spec.scenario = "tradeoff_explorer";
  const double l = (argc > 1 ? std::atof(argv[1]) : 1.5) * 1e-6;
  spec.sweep = scn::SweepSpec{l, l, 1, {}};
  if (argc > 2) spec.technology = argv[2];

  Technology tech;
  try {
    if (const rlc::Status st = spec.validate(); !st.is_ok()) {
      throw std::invalid_argument(st.to_string());
    }
    tech = scn::technology_by_name(spec.technology);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tradeoff_explorer: %s\n", e.what());
    return 2;
  }

  std::printf("Delay/power trade-off, %s, l = %.2f nH/mm "
              "(inductance-aware sizing)\n\n",
              tech.name.c_str(), scn::to_nH_per_mm(l));

  OptimizeRequest req;
  req.objective = Objective::kPower;
  req.l = spec.sweep.values().front();
  const auto front = pareto_front(tech, req);
  if (!front.is_ok() || front->empty()) {
    std::fprintf(stderr, "tradeoff_explorer: %s\n",
                 front.is_ok() ? "empty front"
                               : front.status().to_string().c_str());
    return 1;
  }
  const ParetoPoint& fastest = front->front();
  const auto slower = [&](const ParetoPoint& p) {
    return 100.0 * (p.delay_per_length / fastest.delay_per_length - 1.0);
  };
  const auto saved = [&](const ParetoPoint& p) {
    return 100.0 * (1.0 - p.power_per_length / fastest.power_per_length);
  };

  std::printf("%8s %8s %14s %13s %11s %11s\n", "h (mm)", "k",
              "delay (ps/mm)", "power (mW/m)", "vs fastest", "power save");
  const ParetoPoint* knee = &fastest;  // cheapest point within 10% slack
  for (const ParetoPoint& p : *front) {
    std::printf("%8.2f %8.1f %14.2f %13.3f %+10.1f%% %10.1f%%\n", p.h * 1e3,
                p.k, p.delay_per_length * 1e9, p.power_per_length * 1e3,
                slower(p), saved(p));
    if (slower(p) <= 10.0) knee = &p;
  }
  // Chain power per length is a constant plus a term in the repeater area
  // per length k/h (power.hpp), so a cheaper row always has a smaller k/h.
  std::printf(
      "\nReading: the %zu rows are the non-dominated (delay, power) points\n"
      "of the (h, k) grid: each is faster or cheaper than every other.\n"
      "Accepting %+.1f%% delay over the fastest row saves %.1f%% of the chain\n"
      "power, by cutting the repeater area per length k/h from %.1f to\n"
      "%.1f per mm.\n",
      front->size(), slower(*knee), saved(*knee), fastest.k / fastest.h * 1e-3,
      knee->k / knee->h * 1e-3);
  return 0;
}
