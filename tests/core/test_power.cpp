#include "rlc/core/power.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "rlc/core/elmore.hpp"

namespace rlc::core {
namespace {

TEST(PowerModel, ComponentsArePositiveAtBothNodes) {
  for (const auto& tech : {Technology::nm250(), Technology::nm100()}) {
    const PowerModel m = PowerModel::from_technology(tech);
    const auto rc = rc_optimum(tech);
    const PowerBreakdown p = m.per_length(rc.h, rc.k);
    EXPECT_GT(p.dynamic, 0.0) << tech.name;
    EXPECT_GT(p.short_circuit, 0.0) << tech.name;
    EXPECT_GT(p.leakage, 0.0) << tech.name;
    EXPECT_DOUBLE_EQ(p.total(), p.dynamic + p.short_circuit + p.leakage);
    // Veendrick: the crowbar term is a correction, not the headline.
    EXPECT_LT(p.short_circuit, p.dynamic) << tech.name;
  }
}

TEST(PowerModel, LeakageAnchorsAndGenerationLaw) {
  EXPECT_NEAR(leakage_current_for_node(250e-9), 5e-9, 1e-15);
  EXPECT_NEAR(leakage_current_for_node(100e-9), 50e-9, 1e-14);
  // Constant ratio per generation: the law is geometric in log(node), so
  // the geometric-mean node carries the geometric-mean current.
  const double mid = std::sqrt(250e-9 * 100e-9);
  EXPECT_NEAR(leakage_current_for_node(mid), std::sqrt(5e-9 * 50e-9),
              1e-12);
  // Shrinking nodes leak more, including extrapolated ones.
  EXPECT_GT(leakage_current_for_node(35e-9), leakage_current_for_node(100e-9));
  EXPECT_LT(leakage_current_for_node(180e-9),
            leakage_current_for_node(100e-9));
}

TEST(PowerModel, EveryTermScalesWithRepeaterAreaPerLength) {
  // dynamic/sc ~ c + c_rep k/h, leakage ~ k/h: scaling h and k together
  // leaves the whole breakdown invariant, while k alone raises it and h
  // alone lowers it.
  const PowerModel m = PowerModel::from_technology(Technology::nm100());
  const PowerBreakdown a = m.per_length(1e-3, 100.0);
  const PowerBreakdown b = m.per_length(2e-3, 200.0);
  EXPECT_DOUBLE_EQ(a.dynamic, b.dynamic);
  EXPECT_DOUBLE_EQ(a.short_circuit, b.short_circuit);
  EXPECT_DOUBLE_EQ(a.leakage, b.leakage);
  EXPECT_GT(m.per_length(1e-3, 150.0).total(), a.total());
  EXPECT_LT(m.per_length(1.5e-3, 100.0).total(), a.total());
}

TEST(PowerModel, ChainHelperMatchesModel) {
  const auto tech = Technology::nm100();
  const PowerModel m = PowerModel::from_technology(tech);
  EXPECT_DOUBLE_EQ(chain_power_per_length(tech, 2e-3, 80.0),
                   m.per_length(2e-3, 80.0).total());
}

TEST(PowerModel, EnvScalesDynamicLinearly) {
  const auto tech = Technology::nm100();
  PowerEnv env;
  const PowerBreakdown base =
      PowerModel::from_technology(tech, env).per_length(1e-3, 100.0);
  env.f_clock *= 2.0;
  const PowerBreakdown fast =
      PowerModel::from_technology(tech, env).per_length(1e-3, 100.0);
  EXPECT_DOUBLE_EQ(fast.dynamic, 2.0 * base.dynamic);
  EXPECT_DOUBLE_EQ(fast.short_circuit, 2.0 * base.short_circuit);
  EXPECT_DOUBLE_EQ(fast.leakage, base.leakage);  // leakage is static
}

TEST(PowerModel, RejectsBadEnvironmentAndGeometry) {
  const auto tech = Technology::nm100();
  PowerEnv env;
  env.f_clock = 0.0;
  EXPECT_THROW(PowerModel::from_technology(tech, env), std::invalid_argument);
  env = {};
  env.activity = 1.5;
  EXPECT_THROW(PowerModel::from_technology(tech, env), std::invalid_argument);
  env = {};
  env.vt_fraction = 0.5;
  EXPECT_THROW(PowerModel::from_technology(tech, env), std::invalid_argument);
  const PowerModel m = PowerModel::from_technology(tech);
  EXPECT_THROW(m.per_length(0.0, 100.0), std::domain_error);
  EXPECT_THROW(m.per_length(1e-3, -1.0), std::domain_error);
}

TEST(Energy, FormulaAndMonotonicity) {
  // Switching energy per unit length per transition, (c + (c0 + cp) k/h)
  // Vdd^2: the dynamic term with the switching rate a f divided out.
  const auto tech = Technology::nm100();
  const PowerEnv env;
  const PowerModel m = PowerModel::from_technology(tech, env);
  const auto energy = [&](double h, double k) {
    return m.per_length(h, k).dynamic / (env.activity * env.f_clock);
  };
  const double h = 0.01, k = 300.0;
  const double expect =
      (tech.c + (tech.rep.c0 + tech.rep.cp) * k / h) * tech.vdd * tech.vdd;
  EXPECT_NEAR(energy(h, k), expect, 1e-12 * expect);
  EXPECT_GT(energy(h, 2.0 * k), energy(h, k));
  EXPECT_THROW(m.per_length(0.0, k), std::domain_error);
}

}  // namespace
}  // namespace rlc::core
