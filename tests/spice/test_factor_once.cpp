// Factor-once transients of linear circuits: the key contract every linear
// device keeps, the pinned factorization counts, and bitwise agreement with
// the restamp-and-refactor path that every nonlinear circuit takes.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "rlc/core/delay.hpp"
#include "rlc/core/elmore.hpp"
#include "rlc/core/technology.hpp"
#include "rlc/obs/metrics.hpp"
#include "rlc/ringosc/coupled_bus.hpp"
#include "rlc/spice/circuit.hpp"
#include "rlc/spice/transient.hpp"

namespace rlc::spice {
namespace {

/// An NMOS with drain, gate and source all on ground: nonlinear() is true,
/// so its circuit takes the restamp-and-refactor path, yet it stamps
/// nothing and leaves the circuit's equations as they were.
void add_inert_mosfet(Circuit& c) {
  c.add_mosfet("Minert", c.ground(), c.ground(), c.ground(),
               MosParams{MosType::kNmos, 0.3, 1e-4, 0.1});
}

std::vector<linalg::Triplet> matrix_stamp(const Device& dev,
                                          const StampContext& ctx,
                                          std::vector<double>& rhs) {
  std::vector<linalg::Triplet> triplets;
  rhs.assign(rhs.size(), 0.0);
  Stamper st(triplets, rhs);
  dev.stamp(ctx, st);
  return triplets;
}

/// One of each linear device, eleven in all; returns the pulsed voltage
/// source, whose right-hand side moves with time.
const VSource& add_linear_devices(Circuit& c) {
  const NodeId a = c.node("a"), b = c.node("b"), d = c.node("d");
  const NodeId p = c.node("p"), q = c.node("q");
  const PulseSpec pulse{0.0, 1.0, 1e-10, 2e-11, 2e-11, 1e-10, 5e-10};
  c.add_resistor("R", a, b, 50.0);
  c.add_capacitor("C", a, b, 1e-12);
  Inductor& l1 = c.add_inductor("L1", a, d, 1e-9);
  Inductor& l2 = c.add_inductor("L2", b, q, 2e-9);
  c.add_mutual("K", l1, l2, 0.3);
  c.add_vcvs("E", d, c.ground(), a, b, 2.0);
  c.add_vccs("G", a, d, b, c.ground(), 1e-3);
  c.add_vsource("Vdc", p, c.ground(), DcSpec{1.0});
  const VSource& vpulse = c.add_vsource("Vpulse", q, p, pulse);
  c.add_isource("Idc", a, c.ground(), DcSpec{1e-3});
  c.add_isource("Ipulse", b, d, pulse);
  c.finalize();
  return vpulse;
}

TEST(LinearDeviceContract, MatrixStampDependsOnlyOnAnalysisIntegratorAndDt) {
  // The factor-once key is (analysis, integrator, dt, gmin): every device
  // whose nonlinear() is false must stamp the same matrix at any time,
  // iterate, source scale and companion history.  A time-varying linear
  // device added later fails here instead of reusing stale factors.
  Circuit c;
  const VSource& vpulse = add_linear_devices(c);
  const int n = c.unknown_count();

  std::vector<double> x1(static_cast<std::size_t>(n), 0.0), x2(x1.size());
  for (std::size_t i = 0; i < x2.size(); ++i) x2[i] = 0.1 + 0.37 * i;
  std::vector<double> rhs1(x1.size()), rhs2(x1.size());

  int checked = 0;
  for (const auto& dev : c.devices()) {
    ASSERT_FALSE(dev->nonlinear()) << dev->name();
    for (Analysis an : {Analysis::kDc, Analysis::kTransient}) {
      for (Integrator m : {Integrator::kTrapezoidal, Integrator::kBackwardEuler}) {
        for (double dt : {1e-12, 3e-12}) {
          StampContext first;
          first.analysis = an;
          first.method = m;
          first.dt = dt;
          first.time = 0.0;
          first.x = &x1;
          StampContext second = first;
          second.time = 1.3e-10;  // mid-edge of the pulse
          second.x = &x2;
          second.source_scale = 0.5;
          dev->init_history(first);
          const auto t1 = matrix_stamp(*dev, first, rhs1);
          dev->commit_step(second);  // new companion history
          const auto t2 = matrix_stamp(*dev, second, rhs2);
          ASSERT_EQ(t1.size(), t2.size()) << dev->name();
          for (std::size_t i = 0; i < t1.size(); ++i) {
            EXPECT_EQ(t1[i].row, t2[i].row) << dev->name() << " #" << i;
            EXPECT_EQ(t1[i].col, t2[i].col) << dev->name() << " #" << i;
            EXPECT_EQ(t1[i].value, t2[i].value) << dev->name() << " #" << i;
          }
          if (dev.get() == &vpulse && an == Analysis::kTransient) {
            EXPECT_NE(rhs1, rhs2);  // the two contexts really differ
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 11 * 8);
}

TEST(LinearDeviceContract, RightHandSideIgnoresTheIterate) {
  // The bordered Newton solve stamps the linear devices' right-hand side
  // once per step and keeps it across the step's iterations: at a fixed
  // time, history and source scale, two different iterates must give the
  // same right-hand side, bit for bit.
  Circuit c;
  add_linear_devices(c);
  const int n = c.unknown_count();

  std::vector<double> x1(static_cast<std::size_t>(n), 0.0), x2(x1.size());
  for (std::size_t i = 0; i < x2.size(); ++i) x2[i] = 0.1 + 0.37 * i;
  std::vector<double> history(x1.size());
  for (std::size_t i = 0; i < history.size(); ++i) history[i] = 0.05 * i - 0.2;
  std::vector<double> rhs1(x1.size()), rhs2(x1.size());

  int checked = 0;
  for (const auto& dev : c.devices()) {
    ASSERT_FALSE(dev->nonlinear()) << dev->name();
    for (Analysis an : {Analysis::kDc, Analysis::kTransient}) {
      for (Integrator m : {Integrator::kTrapezoidal, Integrator::kBackwardEuler}) {
        for (double dt : {1e-12, 3e-12}) {
          StampContext first;
          first.analysis = an;
          first.method = m;
          first.dt = dt;
          first.time = 1.3e-10;  // mid-edge of the pulse
          first.source_scale = 0.5;
          first.x = &history;
          dev->init_history(first);
          dev->commit_step(first);  // nonzero companion history
          first.x = &x1;
          StampContext second = first;
          second.x = &x2;
          matrix_stamp(*dev, first, rhs1);
          matrix_stamp(*dev, second, rhs2);
          EXPECT_EQ(rhs1, rhs2) << dev->name();  // bitwise
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 11 * 8);
}

/// A series RLC driven by a step: linear, with both companion models.
void add_rlc(Circuit& c) {
  const NodeId in = c.node("in"), mid = c.node("mid"), out = c.node("out");
  c.add_vsource("V1", in, c.ground(), PulseSpec{0, 1, 0, 1e-12, 1e-12, 1, 0});
  c.add_resistor("R1", in, mid, 20.0);
  c.add_inductor("L1", mid, out, 1e-9);
  c.add_capacitor("C1", out, c.ground(), 1e-12);
}

TransientResult run_rlc(int steps, bool inert, TransientOptions o = {}) {
  Circuit c;
  add_rlc(c);
  if (inert) add_inert_mosfet(c);
  o.tstop = 1e-9;
  o.dt = o.tstop / steps;
  return run_transient(c, o);
}

TEST(FactorOnce, LinearTransientFactorsTwiceWhateverItsStepCount) {
  // One full factorization for the backward-Euler start-up steps and one
  // numeric refactor at the switch to trapezoidal; every other step only
  // restamps the right-hand side.
  for (int steps : {100, 200}) {
    const auto r = run_rlc(steps, false);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.steps_accepted, steps);
    EXPECT_EQ(r.newton_iterations, steps);
    EXPECT_EQ(r.factorizations, 2) << steps;
  }
  TransientOptions be;
  be.method = Integrator::kBackwardEuler;
  EXPECT_EQ(run_rlc(100, false, be).factorizations, 1);
  TransientOptions trap_only;
  trap_only.be_startup_steps = 0;
  EXPECT_EQ(run_rlc(100, false, trap_only).factorizations, 1);
}

TEST(FactorOnce, ShortenedFinalStepRefactorsOnce) {
  // 399 steps of tstop/400 sum past tstop - dt, so the last step is
  // shortened by a few ulps to land on tstop: a new dt, so one more
  // numeric refactor.
  const auto r = run_rlc(400, false);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.steps_accepted, 400);
  EXPECT_LT(r.time[400] - r.time[399], 1e-9 / 400);
  EXPECT_EQ(r.factorizations, 3);
}

TEST(FactorOnce, NonlinearCircuitFactorsOncePerNewtonIteration) {
  const auto r = run_rlc(100, true);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.steps_accepted, 100);
  EXPECT_GE(r.newton_iterations, 2 * r.steps_accepted);
  EXPECT_EQ(r.factorizations, r.newton_iterations);
}

std::int64_t counter(const obs::MetricsSnapshot& s, const std::string& name) {
  for (const auto& [k, v] : s.counters) {
    if (k == name) return v;
  }
  return 0;
}

TEST(FactorOnce, CountsReachTheRegistryOncePerTransient) {
  auto& reg = obs::Registry::global();
  const auto before = reg.snapshot();
  const auto r = run_rlc(100, false);
  const auto delta = reg.snapshot().delta_since(before);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(counter(delta, "spice.transient.runs"), 1);
  EXPECT_EQ(counter(delta, "spice.transient.steps"), 100);
  EXPECT_EQ(counter(delta, "spice.transient.newton_iterations"), 100);
  EXPECT_EQ(counter(delta, "spice.transient.factorizations"), 2);
  // One fresh factorization; the switch to trapezoidal refactors.
  EXPECT_EQ(counter(delta, "spice.transient.factor_nonzeros"), 17);
}

/// The six seed-1 `mna_linear` configurations of the repository benchmark
/// (perfbench): fixed-dt step responses of coupled RLC buses at the quick
/// resolution (16 segments, 1200 steps to 10 two-pole delays).
struct BusCase {
  bool nm250;
  double l;
  int conductors;
  double ccf, km;
  std::vector<double> initial, target;
  long natural_fill;  ///< L + U nonzeros of its LU in natural order
};

const std::vector<BusCase>& benchmark_buses() {
  static const std::vector<BusCase> cases = {
      {true, 8.105272174809644e-07, 3, 0.25, 0.2, {0, 0, 0}, {0, 1, 0}, 5763},
      {true, 1.0465951949807542e-06, 2, 0.25, 0.0, {0, 0}, {1, 1}, 2535},
      {true, 1.1924932287310695e-06, 2, 0.25, 0.0, {0, 0}, {1, 1}, 2535},
      {false, 1.4285612062308595e-06, 2, 0.3, 0.3, {0, 0}, {1, 0}, 2582},
      {false, 5.744592399811744e-07, 2, 0.3, 0.3, {0, 0}, {1, 0}, 2582},
      {true, 6.646291837306491e-07, 3, 0.25, 0.2, {0, 0, 0}, {0, 1, 0}, 5763},
  };
  return cases;
}

/// The benchmark's bus transient: each conductor driven through its
/// repeater (Rs + Cp) by a near-ideal step at the RC-optimal (h, k),
/// loaded by Cl, with far-end probes.
TransientResult run_bus(const BusCase& bc, bool inert) {
  const core::Technology tech =
      bc.nm250 ? core::Technology::nm250() : core::Technology::nm100();
  const double cc = bc.ccf * tech.line(bc.l).c;
  const auto rc = core::rc_optimum(tech.rep, tech.r, tech.c);
  tline::LineParams eff = tech.line(bc.l);
  eff.c += 2.0 * cc;
  const auto delay = core::segment_delay(tech.rep, eff, rc.h, rc.k);
  const double tau = delay.converged ? delay.tau : rc.tau;
  const auto dl = tech.rep.scaled(rc.k);

  Circuit ckt;
  const std::size_t n = bc.initial.size();
  std::vector<NodeId> src(n), drv(n), end(n);
  for (std::size_t w = 0; w < n; ++w) {
    const std::string ws = std::to_string(w);
    src[w] = ckt.node("src" + ws);
    drv[w] = ckt.node("drv" + ws);
    end[w] = ckt.node("end" + ws);
    if (bc.initial[w] == bc.target[w]) {
      ckt.add_vsource("V" + ws, src[w], ckt.ground(), DcSpec{bc.target[w]});
    } else {
      ckt.add_vsource("V" + ws, src[w], ckt.ground(),
                      PulseSpec{bc.initial[w], bc.target[w], 0.0, 1e-14, 1e-14,
                                1.0, 0.0});
    }
    ckt.add_resistor("Rs" + ws, src[w], drv[w], dl.rs_eff);
    ckt.add_capacitor("Cp" + ws, drv[w], ckt.ground(), dl.cp_eff);
    ckt.add_capacitor("Cl" + ws, end[w], ckt.ground(), dl.cl_eff);
  }
  ringosc::add_coupled_bus(ckt, "bus", drv, end, tech.line(bc.l),
                           {cc, bc.km}, rc.h, 16);
  if (inert) add_inert_mosfet(ckt);
  TransientOptions o;
  o.tstop = 10.0 * tau;
  o.dt = o.tstop / 1200;
  for (std::size_t w = 0; w < n; ++w) {
    o.probes.push_back(Probe::node_voltage(end[w], "v" + std::to_string(w)));
  }
  return run_transient(ckt, o);
}

TEST(FactorOnce, MatchesRestampAndRefactorBitwiseOnBenchmarkBuses) {
  for (const BusCase& bc : benchmark_buses()) {
    SCOPED_TRACE("l = " + std::to_string(bc.l) + ", " +
                 std::to_string(bc.conductors) + " conductors");
    const auto fast = run_bus(bc, false);
    const auto ref = run_bus(bc, true);
    ASSERT_TRUE(fast.completed);
    ASSERT_TRUE(ref.completed);
    EXPECT_EQ(fast.steps_accepted, 1200);
    // At most one refactor beyond the start-up pair: a shortened last step.
    EXPECT_LE(fast.factorizations, 3);
    EXPECT_EQ(ref.factorizations, ref.newton_iterations);
    EXPECT_EQ(fast.time, ref.time);  // bitwise
    ASSERT_EQ(fast.signals.size(), static_cast<std::size_t>(bc.conductors));
    EXPECT_EQ(fast.signals, ref.signals);  // bitwise
  }
}

TEST(FactorOnce, BenchmarkBusesFactorWithAThirdOfTheNaturalFill) {
  // In natural order (nodes, then branch currents) partial pivoting picks
  // the +-1 incidence entries of the branch rows over the companion
  // conductances, and the buses' LU fills 7-10x past their matrix (332-578
  // nonzeros).  Ordered and row-scaled, each transient's one fresh
  // factorization keeps under a third of that.
  auto& reg = obs::Registry::global();
  for (const BusCase& bc : benchmark_buses()) {
    SCOPED_TRACE("l = " + std::to_string(bc.l) + ", " +
                 std::to_string(bc.conductors) + " conductors");
    const auto before = reg.snapshot();
    ASSERT_TRUE(run_bus(bc, false).completed);
    const auto delta = reg.snapshot().delta_since(before);
    EXPECT_LE(3 * counter(delta, "spice.transient.factor_nonzeros"),
              bc.natural_fill);
  }
}

}  // namespace
}  // namespace rlc::spice
