/// Failure injection: the analyses must fail *cleanly* (flags, not crashes
/// or garbage) when pushed past their limits, and the convergence-aid
/// ladders must rescue the hard-but-solvable cases.

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

#include "rlc/spice/ac.hpp"
#include "rlc/spice/dcop.hpp"
#include "rlc/spice/transient.hpp"

namespace rlc::spice {
namespace {

TEST(FailurePaths, TransientReportsIncompleteWhenNewtonStarved) {
  // One Newton iteration is not enough for a MOSFET circuit: every step is
  // rejected, the step size bottoms out, and the run reports completed =
  // false instead of looping forever or returning junk.
  Circuit c;
  const auto vdd = c.node("vdd"), in = c.node("in"), out = c.node("out");
  c.add_vsource("Vdd", vdd, c.ground(), DcSpec{2.5});
  c.add_vsource("Vin", in, c.ground(),
                PulseSpec{0, 2.5, 0, 1e-10, 1e-10, 1e-9, 2e-9});
  c.add_mosfet("MP", out, in, vdd, {MosType::kPmos, 0.5, 2e-3, 0.05});
  c.add_mosfet("MN", out, in, c.ground(), {MosType::kNmos, 0.5, 2e-3, 0.05});
  c.add_capacitor("CL", out, c.ground(), 10e-15);
  TransientOptions o;
  o.tstop = 4e-9;
  o.dt = 1e-11;
  o.max_newton = 1;          // starve Newton
  o.max_step_halvings = 4;   // give up quickly
  const auto r = run_transient(c, o);
  EXPECT_FALSE(r.completed);
  EXPECT_GT(r.steps_rejected, 0);
}

TEST(FailurePaths, SameCircuitCompletesWithSaneBudget) {
  Circuit c;
  const auto vdd = c.node("vdd"), in = c.node("in"), out = c.node("out");
  c.add_vsource("Vdd", vdd, c.ground(), DcSpec{2.5});
  c.add_vsource("Vin", in, c.ground(),
                PulseSpec{0, 2.5, 0, 1e-10, 1e-10, 1e-9, 2e-9});
  c.add_mosfet("MP", out, in, vdd, {MosType::kPmos, 0.5, 2e-3, 0.05});
  c.add_mosfet("MN", out, in, c.ground(), {MosType::kNmos, 0.5, 2e-3, 0.05});
  c.add_capacitor("CL", out, c.ground(), 10e-15);
  TransientOptions o;
  o.tstop = 4e-9;
  o.dt = 1e-11;
  const auto r = run_transient(c, o);
  ASSERT_TRUE(r.completed);
  // tstop = 4 ns = two full input periods: the input has just wrapped to
  // low, so the inverter output ends high.
  EXPECT_GT(r.signal("v(out)").back(), 2.0);
}

TEST(FailurePaths, CrossCoupledLatchDcConverges) {
  // Bistable cross-coupled inverters: a classic hard DC case.  Whatever
  // homotopy path the solver takes, it must land on a valid equilibrium
  // (both nodes on rails complementarily, or both at the metastable point).
  Circuit c;
  const auto vdd = c.node("vdd"), a = c.node("a"), b = c.node("b");
  c.add_vsource("Vdd", vdd, c.ground(), DcSpec{2.5});
  const MosParams pn{MosType::kNmos, 0.5, 2e-3, 0.05};
  const MosParams pp{MosType::kPmos, 0.5, 2e-3, 0.05};
  c.add_mosfet("MP1", a, b, vdd, pp);
  c.add_mosfet("MN1", a, b, c.ground(), pn);
  c.add_mosfet("MP2", b, a, vdd, pp);
  c.add_mosfet("MN2", b, a, c.ground(), pn);
  const auto dc = dc_operating_point(c);
  ASSERT_TRUE(dc.converged);
  const double va = dc.voltage(a), vb = dc.voltage(b);
  // Valid equilibria: (hi, lo), (lo, hi), or the metastable midpoint.
  const bool complementary =
      (va > 2.3 && vb < 0.2) || (va < 0.2 && vb > 2.3);
  const bool metastable = std::abs(va - 1.25) < 0.1 && std::abs(vb - 1.25) < 0.1;
  EXPECT_TRUE(complementary || metastable) << va << " " << vb;
}

TEST(FailurePaths, StartFromDcThrowsWhenDcImpossible) {
  // A current source into a capacitor has no DC solution (the gmin shunt
  // makes it *technically* solvable at an absurd voltage; starve the
  // iteration budget to force the failure path deterministically).
  Circuit c;
  const auto vdd = c.node("vdd"), a = c.node("a"), b = c.node("b");
  c.add_vsource("Vdd", vdd, c.ground(), DcSpec{2.5});
  const MosParams pn{MosType::kNmos, 0.5, 2e-3, 0.05};
  const MosParams pp{MosType::kPmos, 0.5, 2e-3, 0.05};
  c.add_mosfet("MP1", a, b, vdd, pp);
  c.add_mosfet("MN1", a, b, c.ground(), pn);
  c.add_mosfet("MP2", b, a, vdd, pp);
  c.add_mosfet("MN2", b, a, c.ground(), pn);
  DcOptions d;
  d.max_iterations = 1;
  const auto dc = dc_operating_point(c, d);
  EXPECT_FALSE(dc.converged);
}

TEST(FailurePaths, SingularTopologyThrowsCleanly) {
  // A current source driving an otherwise unconnected node pair is held up
  // only by the gmin shunt: the solve must either converge (tiny gmin keeps
  // it regular) or throw a typed error — never crash.  With a V-source loop
  // (two ideal sources in parallel with different values) the matrix is
  // truly singular and SparseLU must throw.
  Circuit c;
  const auto a = c.node("a");
  c.add_vsource("V1", a, c.ground(), DcSpec{1.0});
  c.add_vsource("V2", a, c.ground(), DcSpec{2.0});  // contradictory loop
  EXPECT_THROW(
      {
        const auto dc = dc_operating_point(c);
        (void)dc;
      },
      std::runtime_error);
}

TEST(FailurePaths, UnknownProbeKindThrowsInsteadOfRecordingZeros) {
  // The up-front probe check and the recorder's switch are exhaustive over
  // Probe::Kind; a kind they do not understand (e.g. from a future enum
  // grown without updating them) must fail loudly, not silently log zeros.
  Circuit c;
  const auto in = c.node("in"), out = c.node("out");
  c.add_vsource("Vin", in, c.ground(), DcSpec{1.0});
  c.add_resistor("R1", in, out, 1e3);
  c.add_capacitor("C1", out, c.ground(), 1e-12);
  TransientOptions o;
  o.tstop = 1e-9;
  o.dt = 1e-10;
  Probe bad = Probe::node_voltage(out, "v(out)");
  bad.kind = static_cast<Probe::Kind>(99);
  bad.label = "bogus";
  o.probes = {bad};
  EXPECT_THROW(run_transient(c, o), std::logic_error);
}

/// An RC low-pass driven by a step, with `probe` as its only probe.
struct ProbedRc {
  Circuit c;
  NodeId out = 0;
  const Device* source = nullptr;
  const Device* cap = nullptr;
  const Resistor* res = nullptr;

  ProbedRc() {
    const NodeId in = c.node("in");
    out = c.node("out");
    source = &c.add_vsource("Vin", in, c.ground(), DcSpec{1.0}, 1.0);
    res = &c.add_resistor("R1", in, out, 1e3);
    cap = &c.add_capacitor("C1", out, c.ground(), 1e-12);
  }

  TransientOptions transient(const Probe& probe) const {
    TransientOptions o;
    o.tstop = 1e-9;
    o.dt = 1e-10;
    o.probes = {probe};
    return o;
  }
  AcOptions ac(const Probe& probe) const {
    AcOptions o;
    o.frequencies = {1e9};
    o.compute_dc_op = false;
    o.probes = {probe};
    return o;
  }
};

/// `run` throws std::invalid_argument whose message contains `needle`.
void expect_rejected(const std::function<void()>& run,
                     const std::string& needle) {
  try {
    run();
    ADD_FAILURE() << "not rejected; expected a message with " << needle;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(FailurePaths, BranchProbeOnADeviceWithoutABranchIsRejected) {
  // A capacitor has no branch unknown (branch_base() is -1): reading its
  // "branch current" would index x[-1].  Both analyses refuse the probe up
  // front, naming it; the source's branch current stays a valid probe.
  ProbedRc rc;
  const Probe bad = Probe::branch_current(*rc.cap, "i(C1)");
  expect_rejected([&] { run_transient(rc.c, rc.transient(bad)); }, "'i(C1)'");
  expect_rejected([&] { run_ac(rc.c, rc.ac(bad)); }, "'i(C1)'");
  const Probe good = Probe::branch_current(*rc.source, "i(Vin)");
  EXPECT_TRUE(run_transient(rc.c, rc.transient(good)).completed);
  EXPECT_TRUE(run_ac(rc.c, rc.ac(good)).completed);
  // A device of another circuit, and a resistor probe on a non-resistor.
  ProbedRc other;
  expect_rejected(
      [&] {
        run_transient(rc.c,
                      rc.transient(Probe::branch_current(*other.source, "i2")));
      },
      "'i2'");
  Probe not_resistor = Probe::resistor_current(*rc.res, "ir");
  not_resistor.device = rc.cap;
  expect_rejected([&] { run_transient(rc.c, rc.transient(not_resistor)); },
                  "'ir'");
}

TEST(FailurePaths, NodeProbeOutsideTheCircuitIsRejected) {
  // Node ids run from 0 (ground) to node_count() - 1; an id past the end
  // would read past the solution vector.
  ProbedRc rc;
  for (const NodeId bad : {rc.c.node_count(), rc.c.node_count() + 5, -1}) {
    const Probe p = Probe::node_voltage(bad, "v(bad)");
    expect_rejected([&] { run_transient(rc.c, rc.transient(p)); }, "'v(bad)'");
    expect_rejected([&] { run_ac(rc.c, rc.ac(p)); }, "'v(bad)'");
  }
  const Probe last = Probe::node_voltage(rc.c.node_count() - 1, "v(out)");
  EXPECT_TRUE(run_transient(rc.c, rc.transient(last)).completed);
  EXPECT_TRUE(run_ac(rc.c, rc.ac(last)).completed);
}

TEST(FailurePaths, InitialVoltageOutsideTheCircuitIsRejected) {
  // TransientOptions::initial_voltages writes x[node - 1]: a node past the
  // end, or a negative one, is refused with its id in the message.
  ProbedRc rc;
  for (const NodeId bad : {rc.c.node_count(), -2}) {
    TransientOptions o = rc.transient(Probe::node_voltage(rc.out, "v(out)"));
    o.initial_voltages = {{rc.out, 0.5}, {bad, 1.0}};
    expect_rejected([&] { run_transient(rc.c, o); },
                    "node " + std::to_string(bad));
  }
  TransientOptions o = rc.transient(Probe::node_voltage(rc.out, "v(out)"));
  o.initial_voltages = {{rc.c.ground(), 0.3}, {rc.out, 0.5}};
  const auto r = run_transient(rc.c, o);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.signal("v(out)").front(), 0.5);
}

}  // namespace
}  // namespace rlc::spice
