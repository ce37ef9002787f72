// The companion table that holds the linear devices' right-hand side and
// companion history, pinned bit for bit to the former per-device formulas
// (tests/support/companion_reference): every linear kind under both
// integrators, at DC and in a transient, at source scales other than 1; a
// node where the order of the sum decides the bits; and the full path's
// assembly, which adds each record between the nonlinear devices' stamps.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "../../src/spice/src/newton_detail.hpp"
#include "support/companion_reference.hpp"
#include "rlc/core/technology.hpp"
#include "rlc/ringosc/inverter.hpp"
#include "rlc/ringosc/ladder.hpp"
#include "rlc/spice/circuit.hpp"
#include "rlc/tline/line.hpp"

namespace rlc::spice {
namespace {

/// Rows of `got` whose bits differ from `want`'s.
int differing_rows(const std::vector<double>& got,
                   const std::vector<double>& want) {
  EXPECT_EQ(got.size(), want.size());
  int rows = 0;
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      ++rows;
    }
  }
  return rows;
}

/// A fixed sequence of iterates with entries in [-1.5, 1.5).
class Iterates {
 public:
  explicit Iterates(int n) : x_(static_cast<std::size_t>(n)) {}
  const std::vector<double>& next() {
    for (double& v : x_) {
      state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
      v = 3.0 * static_cast<double>(state_ >> 11) * 0x1.0p-53 - 1.5;
    }
    return x_;
  }

 private:
  std::vector<double> x_;
  std::uint64_t state_ = 12345;
};

/// Every linear kind: R, C with and without an initial voltage, L with and
/// without an initial current, K, E, G, V with DC, PULSE, PWL and SIN
/// waveforms, and I with DC, PULSE and SIN ones.
void add_every_linear_kind(Circuit& c) {
  const NodeId a = c.node("a"), b = c.node("b"), d = c.node("d");
  const NodeId p = c.node("p"), q = c.node("q"), s = c.node("s");
  const NodeId w = c.node("w");
  const PulseSpec pulse{0.0, 1.0, 1e-10, 2e-11, 2e-11, 1e-10, 5e-10};
  const SinSpec sine{0.1, 0.5, 2e9, 2e-11, 1e8};
  c.add_resistor("R", a, b, 50.0);
  c.add_capacitor("C", a, b, 1e-12);
  c.add_capacitor("Cic", b, c.ground(), 2e-12, 0.7);
  Inductor& l1 = c.add_inductor("L1", a, d, 1e-9, 1e-3);
  Inductor& l2 = c.add_inductor("L2", b, q, 2e-9);
  c.add_mutual("K", l1, l2, 0.3);
  c.add_vcvs("E", d, c.ground(), a, b, 2.0);
  c.add_vccs("G", a, d, b, c.ground(), 1e-3);
  c.add_vsource("Vdc", p, c.ground(), DcSpec{1.0});
  c.add_vsource("Vpulse", q, p, pulse);
  c.add_vsource("Vpwl", s, c.ground(),
                PwlSpec{{{0.0, 0.2}, {1e-10, 0.8}, {3e-10, -0.4}}});
  c.add_vsource("Vsin", w, c.ground(), sine);
  c.add_isource("Idc", a, c.ground(), DcSpec{1e-3});
  c.add_isource("Ipulse", b, d, pulse);
  c.add_isource("Isin", s, w, sine);
  c.finalize();
}

TEST(CompanionTable, EveryLinearKindMatchesTheFormerStamps) {
  Circuit c;
  add_every_linear_kind(c);
  const int n = c.unknown_count();
  detail::CompanionTable table;
  table.build(c);
  EXPECT_EQ(table.size(), 12u);  // all but R, E and G
  ReferenceCompanions ref(c);
  Iterates iterates(n);
  std::vector<double> z;
  std::vector<char> touched(static_cast<std::size_t>(n), 0);
  const auto expect_same = [&](const StampContext& ctx, const char* what) {
    z.assign(static_cast<std::size_t>(n), 0.0);
    table.fill(ctx, z);
    EXPECT_EQ(differing_rows(z, ref.rhs(ctx)), 0) << what;
    for (int i = 0; i < n; ++i) touched[i] = touched[i] || z[i] != 0.0;
  };

  // DC, at full scale and along a source-stepping ramp.
  StampContext ctx;
  ctx.x = &iterates.next();
  for (const double scale : {1.0, 0.35, 0.05}) {
    ctx.source_scale = scale;
    expect_same(ctx, "dc");
  }

  // A transient from an arbitrary state: backward-Euler start-up, then
  // trapezoidal steps across the pulse edges, the PWL corners and the sine,
  // with a halved step, a rejected attempt and a step at scale 0.6.
  struct Step {
    Integrator method;
    double dt;
    double scale;
    bool accept;
  };
  const Integrator be = Integrator::kBackwardEuler;
  const Integrator trap = Integrator::kTrapezoidal;
  const std::vector<Step> steps = {
      {be, 2.5e-11, 1.0, true},     {be, 2.5e-11, 1.0, true},
      {trap, 2.5e-11, 1.0, true},   {trap, 2.5e-11, 1.0, true},
      {trap, 2.5e-11, 1.0, false},  {trap, 1.25e-11, 1.0, true},
      {trap, 1.25e-11, 0.6, true},  {trap, 2.5e-11, 1.0, true},
      {be, 7e-12, 1.0, true},       {trap, 2.5e-11, 1.0, true},
      {trap, 3.1e-11, 1.0, true},   {trap, 2.5e-11, 1.0, true},
  };
  ctx.analysis = Analysis::kTransient;
  const std::vector<double> x0 = iterates.next();
  table.start(x0);
  ref.init_history(x0);
  double t = 0.0;
  for (const Step& step : steps) {
    ctx.method = step.method;
    ctx.dt = step.dt;
    ctx.time = t + step.dt;
    ctx.source_scale = step.scale;
    ctx.x = &iterates.next();  // neither reads the iterate
    expect_same(ctx, "transient");
    if (!step.accept) continue;
    table.commit(ctx, *ctx.x);
    ref.commit_step(ctx);
    t = ctx.time;
  }
  // Every row a right-hand side lands on took a nonzero value: all but the
  // nodes p and q, whose sources write their branch rows, and E's branch.
  EXPECT_EQ(std::count(touched.begin(), touched.end(), 0), 3);
}

/// Node m shared by three capacitors and a current source, whose terms at
/// the first step are 1e16, 1, -1e16 and 3 in the order `order` lists them
/// (an index into {C1, I1, C2, C3}).
void add_shared_node(Circuit& c, const std::vector<int>& order) {
  const NodeId m = c.node("m");
  for (const int k : order) {
    switch (k) {
      case 0:
        c.add_capacitor("C1", m, c.ground(), 1e-12, 1e16);
        break;
      case 1:
        c.add_isource("I1", c.ground(), m, DcSpec{1.0});
        break;
      case 2:
        c.add_capacitor("C2", m, c.ground(), 1e-12, -1e16);
        break;
      default:
        c.add_capacitor("C3", m, c.ground(), 1e-12, 3.0);
    }
  }
  c.add_resistor("R", m, c.ground(), 1e3);
  c.finalize();
}

TEST(CompanionTable, SharedNodeSumsInDeviceOrder) {
  // ((1e16 + 1) - 1e16) + 3 is not (1e16 - 1e16 + 3) + 1 in binary64: the
  // table must add the records as the devices stood, like the former
  // stamps, and a circuit listing the source last gets other bits.
  for (const Integrator m :
       {Integrator::kBackwardEuler, Integrator::kTrapezoidal}) {
    const std::vector<std::vector<int>> orders = {{0, 1, 2, 3}, {0, 2, 3, 1}};
    std::vector<double> z_m;  // z at node m, per order
    for (const auto& order : orders) {
      Circuit c;
      add_shared_node(c, order);
      detail::CompanionTable table;
      table.build(c);
      ReferenceCompanions ref(c);
      const std::vector<double> x0(static_cast<std::size_t>(c.unknown_count()),
                                   0.0);
      table.start(x0);
      ref.init_history(x0);
      StampContext ctx;
      ctx.analysis = Analysis::kTransient;
      ctx.method = m;
      ctx.dt = 1e-12;
      ctx.time = ctx.dt;
      ctx.x = &x0;
      std::vector<double> z(x0.size(), 0.0);
      table.fill(ctx, z);
      EXPECT_EQ(differing_rows(z, ref.rhs(ctx)), 0);
      z_m.push_back(z[0]);
    }
    EXPECT_NE(z_m[0], z_m[1]);
  }
}

/// An open chain of `stages` size-1 inverters driven by a pulse, each output
/// loaded with 2 fF, into a 6-segment RC ladder: the MOSFETs' and the
/// capacitors' right-hand sides share every stage's rows.
void build_chain(Circuit& c, int stages) {
  const core::Technology tech = core::Technology::nm100();
  const NodeId vdd = c.node("vdd");
  c.add_vsource("vsupply", vdd, c.ground(), DcSpec{tech.vdd});
  NodeId prev = c.node("drive");
  PulseSpec pulse;
  pulse.v2 = tech.vdd;
  pulse.delay = 4e-12;
  pulse.rise = pulse.fall = 10e-12;
  pulse.width = 150e-12;
  pulse.period = 400e-12;
  c.add_vsource("vdrive", prev, c.ground(), pulse);
  for (int i = 0; i < stages; ++i) {
    const std::string id = std::to_string(i);
    const NodeId out = c.node("o" + id);
    ringosc::add_inverter(c, "inv" + id, prev, out, vdd, tech, 1.0);
    c.add_capacitor("cl" + id, out, c.ground(), 2e-15);
    prev = out;
  }
  ringosc::add_rlc_ladder(c, "line", prev, c.node("end"),
                          tline::LineParams{1e5, 0.0, 2e-10}, 1e-3, 6);
  c.finalize();
}

TEST(CompanionTable, FullPathAddsRecordsBetweenTheNonlinearStamps) {
  // A chain of 24 inverters: its border is too large for the bordered
  // solve, so every iteration assembles the whole system, with each record
  // of the table at its device's place between the MOSFETs' stamps.  Over
  // start-up and trapezoidal steps and their Newton iterates, the assembled
  // right-hand side is the former stamps' bit for bit; adding the whole
  // table before the MOSFETs would move some rows.
  Circuit c;
  build_chain(c, 24);
  const int n = c.unknown_count();
  const int n_nodes = c.node_count() - 1;
  detail::SolveWorkspace ws;
  ws.companions.build(c);
  ReferenceCompanions ref(c);
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  x[c.node("vdd") - 1] = core::Technology::nm100().vdd;
  for (int i = 1; i < 24; i += 2) x[c.node("o" + std::to_string(i)) - 1] = x[0];
  ws.companions.start(x);
  ref.init_history(x);

  StampContext ctx;
  ctx.analysis = Analysis::kTransient;
  ctx.dt = 2e-12;
  int compared = 0, reordered_rows = 0;
  std::vector<double> table_first, x_try;
  std::vector<linalg::Triplet> triplets;
  for (int step = 0; step < 30; ++step) {
    ctx.method = step < 2 ? Integrator::kBackwardEuler
                          : Integrator::kTrapezoidal;
    ctx.time = (step + 1) * ctx.dt;
    x_try = x;
    ctx.x = &x_try;
    if (step == 0) {
      ASSERT_FALSE(detail::solve_border(c, ctx, 1e-12, ws, true));
    }
    for (int it = 0; it < 4; ++it) {
      const std::vector<double>& sol = detail::solve_full(c, ctx, 1e-12, ws);
      EXPECT_EQ(differing_rows(ws.rhs, ref.rhs(ctx)), 0)
          << "step " << step << " it " << it;
      ++compared;
      table_first.assign(x.size(), 0.0);
      ws.companions.fill(ctx, table_first);
      Stamper st(triplets, table_first);
      for (const auto& dev : c.devices()) {
        if (dev->nonlinear()) dev->stamp(ctx, st);
      }
      reordered_rows += differing_rows(table_first, ws.rhs);
      for (std::size_t i = 0; i < x.size(); ++i) {
        double delta = sol[i] - x_try[i];
        if (static_cast<int>(i) < n_nodes) delta = std::clamp(delta, -1.0, 1.0);
        x_try[i] += delta;
      }
    }
    x = x_try;
    ctx.x = &x;
    ws.companions.commit(ctx, x);
    ref.commit_step(ctx);
  }
  EXPECT_EQ(compared, 120);
  EXPECT_GT(reordered_rows, 0);
}

TEST(CompanionTable, SolvesRefuseATableBuiltForAnotherCircuit) {
  Circuit a, b;
  for (Circuit* c : {&a, &b}) {
    const NodeId in = c->node("in"), out = c->node("out");
    c->add_vsource("V", in, c->ground(), DcSpec{1.0});
    c->add_resistor("R", in, out, 1e3);
    c->add_capacitor("C", out, c->ground(), 1e-12);
    c->finalize();
  }
  std::vector<double> x(static_cast<std::size_t>(a.unknown_count()), 0.0);
  StampContext ctx;
  ctx.x = &x;
  detail::SolveWorkspace ws;
  EXPECT_THROW(detail::solve_full(a, ctx, 1e-12, ws), std::logic_error);
  ws.companions.build(b);
  EXPECT_THROW(detail::solve_full(a, ctx, 1e-12, ws), std::logic_error);
  ws.companions.build(a);
  EXPECT_NO_THROW(detail::solve_full(a, ctx, 1e-12, ws));
  a.add_resistor("R2", a.node("out"), a.ground(), 1e3);
  a.finalize();
  EXPECT_THROW(detail::solve_full(a, ctx, 1e-12, ws), std::logic_error);
}

}  // namespace
}  // namespace rlc::spice
