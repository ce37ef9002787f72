#include "rlc/ringosc/coupled_bus.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "rlc/analysis/signal_metrics.hpp"
#include "rlc/core/delay.hpp"
#include "rlc/core/elmore.hpp"
#include "rlc/tline/coupled_line.hpp"

namespace rlc::ringosc {
namespace {

using rlc::core::Technology;

/// Number of devices in `ckt` whose name starts with `prefix`.
std::size_t count_named(const rlc::spice::Circuit& ckt,
                        const std::string& prefix) {
  return static_cast<std::size_t>(std::count_if(
      ckt.devices().begin(), ckt.devices().end(),
      [&](const auto& d) { return d->name().rfind(prefix, 0) == 0; }));
}

TEST(CoupledBus, StructureAndValidation) {
  const rlc::tline::LineParams line{4400.0, 1e-6, 1.5e-10};
  const CouplingParams cp{5e-11, 0.4};
  rlc::spice::Circuit ckt;
  const auto a1 = ckt.node("a1"), a2 = ckt.node("a2");
  const auto v1 = ckt.node("v1"), v2 = ckt.node("v2");
  const auto bus =
      add_coupled_bus(ckt, "b", {a1, v1}, {a2, v2}, line, cp, 0.01, 8);
  ASSERT_EQ(bus.size(), 2u);
  EXPECT_EQ(bus[0].resistors.size(), 8u);
  EXPECT_EQ(bus[1].resistors.size(), 8u);
  // Both lines of a pair already see one neighbour: no shield caps.
  EXPECT_EQ(count_named(ckt, "b.cs"), 0u);

  // Three lines: (n - 1) * nseg coupling caps and K elements, and a cc * dx
  // shield cap to ground on every segment of the two edge lines only.
  rlc::spice::Circuit ckt3;
  const auto bus3 = add_coupled_bus(
      ckt3, "t", {ckt3.node("i0"), ckt3.node("i1"), ckt3.node("i2")},
      {ckt3.node("o0"), ckt3.node("o1"), ckt3.node("o2")}, line, cp, 0.01, 8);
  ASSERT_EQ(bus3.size(), 3u);
  for (const Ladder& w : bus3) EXPECT_EQ(w.resistors.size(), 8u);
  EXPECT_EQ(count_named(ckt3, "t.cc"), 16u);
  EXPECT_EQ(count_named(ckt3, "t.k"), 16u);
  EXPECT_EQ(count_named(ckt3, "t.cs"), 16u);
  for (int i = 0; i < 8; ++i) {
    const std::string seg = "_" + std::to_string(i);
    for (const char* edge : {"t.cs0", "t.cs2"}) {
      const auto* shield =
          dynamic_cast<const rlc::spice::Capacitor*>(ckt3.find(edge + seg));
      ASSERT_NE(shield, nullptr) << edge << seg;
      EXPECT_DOUBLE_EQ(shield->capacitance(), cp.cc * 0.01 / 8);
    }
    EXPECT_EQ(ckt3.find("t.cs1" + seg), nullptr);
  }

  EXPECT_THROW(add_coupled_bus(ckt, "m", {a1, v1}, {a2}, line, cp, 0.01, 4),
               std::invalid_argument);
  for (double km : {1.0, -1.0, 1.5}) {
    EXPECT_THROW(
        add_coupled_bus(ckt, "x", {a1, v1}, {a2, v2}, line, {0.0, km}, 0.01, 4),
        std::invalid_argument)
        << km;
  }
  const rlc::tline::LineParams rc_line{4400.0, 0.0, 1.5e-10};
  const CouplingParams needs_l{0.0, 0.4};
  EXPECT_THROW(
      add_coupled_bus(ckt, "y", {a1, v1}, {a2, v2}, rc_line, needs_l, 0.01, 4),
      std::invalid_argument);

  // Three lines stop being positive definite at |km| = 1/sqrt(2).
  const double bound = rlc::tline::coupling_km_bound(3);
  const auto build3 = [&](double km) {
    rlc::spice::Circuit c;
    add_coupled_bus(c, "t", {c.node("i0"), c.node("i1"), c.node("i2")},
                    {c.node("o0"), c.node("o1"), c.node("o2")}, line,
                    {cp.cc, km}, 0.01, 4);
  };
  for (double km : {0.999 * bound, -0.999 * bound, 0.70}) {
    EXPECT_NO_THROW(build3(km)) << km;
  }
  for (double km : {1.001 * bound, -1.001 * bound, 0.8}) {
    EXPECT_THROW(build3(km), std::invalid_argument) << km;
  }
  // The transient harness refuses such a bus before simulating it.
  const auto tech = Technology::nm100();
  const auto rc = rlc::core::rc_optimum(tech);
  EXPECT_THROW(run_coupled_step(tech, {2.5e-11, 0.8}, 1e-6, rc.h, rc.k,
                                {0.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, 1e-9, 100,
                                4),
               std::invalid_argument);
}

/// The Miller-range experiment on a coupled pair: the aggressor (line 0)
/// switches rail to rail while the victim (line 1) stays quiet, switches
/// along, or switches against.
struct MillerRun {
  bool completed = false;
  double victim_peak_noise = 0.0;  ///< [V] when the victim is quiet
  double delay_quiet = 0.0;        ///< aggressor 50% delay [s]
  double delay_inphase = 0.0;      ///< victim switches with the aggressor
  double delay_antiphase = 0.0;    ///< victim switches against
};

class CrosstalkTest : public ::testing::Test {
 protected:
  static MillerRun run(double cc_frac, double km) {
    const auto tech = Technology::nm100();
    const auto rc = rlc::core::rc_optimum(tech);
    const double l = 1e-6, h = 0.5 * rc.h, k = 0.5 * rc.k;
    CouplingParams cp;
    cp.cc = cc_frac * tech.c;
    cp.km = km;
    // Time scale from the two-pole model with the quiet-neighbour
    // capacitance; 400 steps per tau over 12 tau.
    rlc::tline::LineParams line_eff = tech.line(l);
    line_eff.c += 2.0 * cp.cc;
    const auto est = rlc::core::segment_delay(tech.rep, line_eff, h, k);
    const double tau = est.converged ? est.tau : rc.tau;
    const auto step = [&](double victim_from, double victim_to) {
      return run_coupled_step(tech, cp, l, h, k, {0.0, victim_from},
                              {1.0, victim_to}, 12.0 * tau, 4800, 10);
    };
    const auto delay = [](const CoupledStepResult& s) {
      if (!s.completed) return -1.0;
      return rlc::analysis::first_crossing_after(s.time, s.far_end[0], 0.5,
                                                 rlc::analysis::Edge::kRising,
                                                 0.0)
          .value_or(-1.0);
    };
    const CoupledStepResult quiet = step(0.0, 0.0);
    MillerRun r;
    r.delay_quiet = delay(quiet);
    r.delay_inphase = delay(step(0.0, 1.0));
    r.delay_antiphase = delay(step(1.0, 0.0));
    r.completed = r.delay_quiet >= 0.0 && r.delay_inphase >= 0.0 &&
                  r.delay_antiphase >= 0.0;
    if (quiet.completed) {
      for (double v : quiet.far_end[1]) {
        r.victim_peak_noise = std::max(r.victim_peak_noise, std::abs(v));
      }
    }
    return r;
  }
};

TEST_F(CrosstalkTest, MillerOrderingOfDelays) {
  // Anti-phase neighbour switching slows the aggressor, in-phase speeds it
  // up: delay_inphase < delay_quiet < delay_antiphase (Section 3 Miller
  // discussion).
  const auto r = run(0.3, 0.0);
  ASSERT_TRUE(r.completed);
  EXPECT_LT(r.delay_inphase, r.delay_quiet);
  EXPECT_LT(r.delay_quiet, r.delay_antiphase);
  // The spread is substantial for 30% coupling.
  EXPECT_GT(r.delay_antiphase / r.delay_inphase, 1.1);
}

TEST_F(CrosstalkTest, VictimNoiseGrowsWithCoupling) {
  const auto weak = run(0.1, 0.0);
  const auto strong = run(0.4, 0.0);
  ASSERT_TRUE(weak.completed);
  ASSERT_TRUE(strong.completed);
  EXPECT_GT(strong.victim_peak_noise, weak.victim_peak_noise);
  EXPECT_GT(weak.victim_peak_noise, 0.0);
}

TEST_F(CrosstalkTest, InductiveCouplingAddsNoise) {
  const auto cap_only = run(0.2, 0.0);
  const auto both = run(0.2, 0.4);
  ASSERT_TRUE(cap_only.completed);
  ASSERT_TRUE(both.completed);
  // Magnetic coupling injects additional victim noise on top of the
  // capacitive component (long current return loops — the paper's
  // Section 1.1 motivation).
  EXPECT_GT(both.victim_peak_noise, cap_only.victim_peak_noise);
}

}  // namespace
}  // namespace rlc::ringosc
