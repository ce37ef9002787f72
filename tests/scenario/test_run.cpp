/// End-to-end scenario runs: fig4 and fig7 must equal their computation
/// (the retired standalone binaries' grids and options along the serial
/// warm-start sweep) bit-for-bit, the figure sweeps must be Newton-only,
/// results must be deterministic across thread counts, and the JSON
/// envelope must parse back with the schema fields rlc_run artifacts
/// promise.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rlc/core/lcrit.hpp"
#include "rlc/core/optimizer.hpp"
#include "rlc/exec/thread_pool.hpp"
#include "rlc/io/json_reader.hpp"
#include "rlc/obs/metrics.hpp"
#include "rlc/scenario/registry.hpp"

namespace {

using namespace rlc::scenario;
using rlc::core::OptimResult;
using rlc::core::Technology;

const Scenario& scenario(const std::string& name) {
  register_all_scenarios();
  const Scenario* s = ScenarioRegistry::global().find(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

/// The computation of the retired bench/fig4_lcrit.cpp: default 26-point
/// sweep, default solver options, critical inductance at the RLC-optimal
/// (h, k) per node, along the serial warm-start sweep.
TEST(ScenarioRun, Fig4MatchesLegacyBinaryBitExactly) {
  const Scenario& s = scenario("fig4");
  const ScenarioResult res = run_scenario(s, s.defaults);
  ASSERT_TRUE(res.error.empty()) << res.error;
  ASSERT_EQ(res.tables.size(), 1u);
  const Table& t = res.tables[0];

  std::vector<double> ls;
  for (int i = 0; i <= 25; ++i) ls.push_back(5.0e-6 * i / 25);
  const Technology t250 = Technology::nm250();
  const Technology t100 = Technology::nm100();
  const auto r250 = optimize_rlc_sweep(t250, ls);
  const auto r100 = optimize_rlc_sweep(t100, ls);

  ASSERT_EQ(t.rows.size(), ls.size());
  for (std::size_t i = 0; i < ls.size(); ++i) {
    ASSERT_TRUE(r250[i].converged && r100[i].converged) << i;
    // EXPECT_EQ throughout: bit-identical, not approximately equal.
    EXPECT_EQ(t.rows[i][0].number, ls[i] * 1e6) << i;
    EXPECT_EQ(t.rows[i][1].number,
              critical_inductance(t250, r250[i].h, r250[i].k) * 1e6)
        << i;
    EXPECT_EQ(t.rows[i][2].number,
              critical_inductance(t100, r100[i].h, r100[i].k) * 1e6)
        << i;
  }
}

/// Likewise for bench/fig7_delay_ratio.cpp: three technologies, delay
/// ratios normalized to the l = 0 point of each series.
TEST(ScenarioRun, Fig7MatchesLegacyBinaryBitExactly) {
  const Scenario& s = scenario("fig7");
  const ScenarioResult res = run_scenario(s, s.defaults);
  ASSERT_TRUE(res.error.empty()) << res.error;
  ASSERT_EQ(res.tables.size(), 1u);
  const Table& t = res.tables[0];

  std::vector<double> ls;
  for (int i = 0; i <= 25; ++i) ls.push_back(5.0e-6 * i / 25);
  const Technology techs[] = {Technology::nm250(), Technology::nm100(),
                              Technology::nm100_with_250nm_dielectric()};
  std::vector<std::vector<OptimResult>> sweeps;
  for (const auto& tech : techs) sweeps.push_back(optimize_rlc_sweep(tech, ls));

  ASSERT_EQ(t.rows.size(), ls.size());
  for (std::size_t i = 0; i < ls.size(); ++i) {
    EXPECT_EQ(t.rows[i][0].number, ls[i] * 1e6) << i;
    for (std::size_t j = 0; j < 3; ++j) {
      ASSERT_TRUE(sweeps[j][i].converged) << i;
      EXPECT_EQ(t.rows[i][j + 1].number,
                sweeps[j][i].delay_per_length / sweeps[j][0].delay_per_length)
          << "row " << i << " tech " << j;
    }
  }
}

std::int64_t counter(const rlc::obs::MetricsSnapshot& m,
                     const std::string& name) {
  for (const auto& [n, v] : m.counters) {
    if (n == name) return v;
  }
  return 0;  // the delta drops zero counters
}

/// The paper's Newton claim holds along every figure sweep: run one at a
/// time (so the registry delta is the scenario's own), quick fig4-fig8
/// solve each grid point once per technology node, and Newton answers all
/// of them without the Nelder-Mead fallback.
TEST(ScenarioRun, FigureSweepsAreAnsweredByNewtonAlone) {
  const struct {
    const char* name;
    int nodes;
  } figures[] = {{"fig4", 2}, {"fig5", 2}, {"fig6", 2}, {"fig7", 3},
                 {"fig8", 2}};
  for (const auto& fig : figures) {
    const Scenario& s = scenario(fig.name);
    const ScenarioSpec spec = quick_spec(s.defaults);
    const ScenarioResult res = run_scenario(s, spec);
    ASSERT_TRUE(res.error.empty()) << fig.name << ": " << res.error;
    const auto& m = res.observability.metrics;
    EXPECT_EQ(counter(m, "optimizer.nm_fallbacks"), 0) << fig.name;
    EXPECT_EQ(counter(m, "optimizer.calls"),
              static_cast<std::int64_t>(spec.sweep.values().size()) * fig.nodes)
        << fig.name;
  }
}

/// The determinism contract: a scenario's numbers must not depend on the
/// pool size it runs on.
TEST(ScenarioRun, ResultsAreIdenticalAcrossThreadCounts) {
  for (const char* name : {"fig4", "fig8", "ablation_ladder"}) {
    const Scenario& s = scenario(name);
    const ScenarioSpec spec = quick_spec(s.defaults);
    rlc::exec::ThreadPool pool1(1);
    rlc::exec::ThreadPool pool3(3);
    const ScenarioResult a = run_scenario(s, spec, &pool1);
    const ScenarioResult b = run_scenario(s, spec, &pool3);
    ASSERT_TRUE(a.error.empty()) << name << ": " << a.error;
    EXPECT_EQ(a.numeric_fingerprint(), b.numeric_fingerprint()) << name;
    EXPECT_EQ(a.threads, 1);
    EXPECT_EQ(b.threads, 3);
  }
}

TEST(ScenarioRun, EnvelopeJsonParsesWithSchemaFields) {
  const Scenario& s = scenario("fig4");
  const ScenarioSpec spec = quick_spec(s.defaults);
  const ScenarioResult res = run_scenario(s, spec);
  const rlc::io::JsonValue v = rlc::io::parse_json(res.to_json().str());

  EXPECT_EQ(v.int_or("schema", 0), 9);
  EXPECT_EQ(v.string_or("bench", ""), "fig4");
  EXPECT_EQ(v.bool_or("quick", false), true);
  EXPECT_GE(v.number_or("wall_seconds", -1.0), 0.0);
  EXPECT_GE(v.int_or("threads", 0), 1);

  const rlc::io::JsonValue* tables = v.find("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_GE(tables->items().size(), 1u);
  const rlc::io::JsonValue& t0 = tables->items()[0];
  ASSERT_NE(t0.find("columns"), nullptr);
  ASSERT_NE(t0.find("rows"), nullptr);
  EXPECT_EQ(t0.find("rows")->items()[0].items().size(),
            t0.find("columns")->items().size());

  // Schema 8: no counters block; the solver tally is the registry delta.
  // Quick fig4 solves 7 inductances at each of the two nodes.
  EXPECT_EQ(v.find("counters"), nullptr);
  // Schema 9: the embedded spec has no `parallel` switch.
  ASSERT_NE(v.find("spec"), nullptr);
  EXPECT_EQ(v.find("spec")->find("parallel"), nullptr);
  const rlc::io::JsonValue* obs = v.find("observability");
  ASSERT_NE(obs, nullptr);
  const rlc::io::JsonValue* metrics = obs->find("metrics");
  ASSERT_NE(metrics, nullptr);
  const rlc::io::JsonValue* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->int_or("optimizer.calls", -1), 14);

  // The embedded spec round-trips back to the spec that ran.
  const rlc::io::JsonValue* spec_j = v.find("spec");
  ASSERT_NE(spec_j, nullptr);
  EXPECT_EQ(ScenarioSpec::from_json(*spec_j).value(), spec);
}

TEST(ScenarioRun, InvalidSpecIsRejectedBeforeRunning) {
  const Scenario& s = scenario("fig4");
  ScenarioSpec bad = s.defaults;
  bad.threshold = 2.0;
  EXPECT_THROW(run_scenario(s, bad), std::invalid_argument);
}

}  // namespace
