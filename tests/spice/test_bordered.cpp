// The bordered (Schur-complement) Newton solve of nonlinear transients: the
// pattern contract it relies on, agreement with the full sparse LU per
// iteration and over whole ring transients, the circuits that keep the full
// path, and the counts each path records.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "../../src/spice/src/newton_detail.hpp"
#include "rlc/analysis/signal_metrics.hpp"
#include "rlc/core/delay.hpp"
#include "rlc/core/elmore.hpp"
#include "rlc/core/technology.hpp"
#include "rlc/obs/metrics.hpp"
#include "rlc/ringosc/inverter.hpp"
#include "rlc/ringosc/ladder.hpp"
#include "rlc/spice/circuit.hpp"
#include "rlc/spice/transient.hpp"
#include "rlc/tline/line.hpp"

namespace rlc::spice {
namespace {

struct StampRecord {
  std::vector<linalg::Triplet> triplets;
  std::vector<double> rhs;
};

StampRecord stamp_at(const Device& dev, const StampContext& ctx, int n) {
  StampRecord rec;
  rec.rhs.assign(static_cast<std::size_t>(n), 0.0);
  Stamper st(rec.triplets, rec.rhs);
  dev.stamp(ctx, st);
  return rec;
}

TEST(NonlinearDeviceContract, MosfetStampPatternIsFixed) {
  // The bordered solve finds the border from one stamp of the nonlinear
  // devices and later scatters every stamp into it: the (row, col) sequence
  // must not depend on the operating region, and the right-hand side may
  // only land on the rows the matrix stamp touches.
  Circuit c;
  const NodeId d = c.node("d"), g = c.node("g"), s = c.node("s");
  const Mosfet& nmos =
      c.add_mosfet("MN", d, g, s, MosParams{MosType::kNmos, 0.5, 2e-3, 0.05});
  const Mosfet& pmos =
      c.add_mosfet("MP", d, g, s, MosParams{MosType::kPmos, 0.5, 2e-3, 0.05});
  c.finalize();
  const int n = c.unknown_count();
  // (vd, vg, vs) in cutoff, triode, saturation and reversed vds for the
  // NMOS; the PMOS takes the mirror images, which are its same regions.
  const std::vector<std::vector<double>> nmos_biases = {
      {1.0, 0.2, 0.0}, {0.2, 2.0, 0.0}, {2.0, 1.2, 0.0}, {0.0, 2.0, 0.6}};
  for (const Mosfet* m : {&nmos, &pmos}) {
    const double sign = m == &nmos ? 1.0 : -1.0;
    std::vector<std::vector<double>> biases = nmos_biases;
    for (auto& bias : biases) {
      for (double& v : bias) v *= sign;
    }
    StampContext ctx;
    ctx.analysis = Analysis::kTransient;
    ctx.dt = 1e-12;
    ctx.x = &biases[0];
    const StampRecord first = stamp_at(*m, ctx, n);
    std::vector<char> rows(static_cast<std::size_t>(n), 0);
    for (const auto& t : first.triplets) rows[t.row] = 1;
    for (std::size_t b = 0; b < biases.size(); ++b) {
      const auto& bias = biases[b];
      const double vgs = bias[1] - bias[2], vds = bias[0] - bias[2];
      const MosEval e = mos_eval(m->params(), vgs, vds);
      EXPECT_EQ(e.ids == 0.0, b == 0) << m->name() << " bias " << b;
      EXPECT_EQ(sign * e.ids < 0.0, b == 3) << m->name() << " bias " << b;
      ctx.x = &bias;
      const StampRecord rec = stamp_at(*m, ctx, n);
      ASSERT_EQ(rec.triplets.size(), first.triplets.size()) << m->name();
      for (std::size_t i = 0; i < rec.triplets.size(); ++i) {
        EXPECT_EQ(rec.triplets[i].row, first.triplets[i].row) << m->name();
        EXPECT_EQ(rec.triplets[i].col, first.triplets[i].col) << m->name();
      }
      for (int r = 0; r < n; ++r) {
        if (!rows[r]) {
          EXPECT_EQ(rec.rhs[r], 0.0) << m->name() << " row " << r;
        }
      }
    }
  }
}

/// The repository benchmark's ring shape (perfbench's RING_CONFIGS): five
/// stages of RC-optimal inverters, each driving a 6-segment RLC ladder, 250
/// steps per estimated period, 2 settling and 5 measured periods.
struct RingCase {
  bool nm250;
  double l_nh_per_mm;
};

const std::vector<RingCase>& benchmark_rings() {
  static const std::vector<RingCase> cases = {
      {false, 0.2}, {false, 0.8}, {false, 1.4}, {false, 3.5}, {false, 5.0},
      {true, 0.2},  {true, 1.0},  {true, 2.0},  {true, 3.5},  {true, 5.0},
  };
  return cases;
}

struct Ring {
  Circuit ckt;
  TransientOptions opts;
  double vdd = 0.0;
};

/// Stage i is a size-k inverter in[i] -> out[i] driving a length-h ladder
/// of `nseg` segments to in[i + 1], started with one logic clash so it
/// settles into the fundamental mode.
void build_ring(const RingCase& rc_case, Ring& ring, int stages = 5,
                int nseg = 6) {
  const core::Technology tech =
      rc_case.nm250 ? core::Technology::nm250() : core::Technology::nm100();
  const double l = rc_case.l_nh_per_mm * 1e-9 / 1e-3;
  const auto rc = core::rc_optimum(tech.rep, tech.r, tech.c);
  const auto delay = core::segment_delay(tech.rep, tech.line(l), rc.h, rc.k);
  const double tau = delay.converged ? delay.tau : rc.tau;
  Circuit& ckt = ring.ckt;
  ring.vdd = tech.vdd;
  const NodeId vdd = ckt.node("vdd");
  ckt.add_vsource("vsupply", vdd, ckt.ground(), DcSpec{tech.vdd});
  std::vector<NodeId> in(stages), out(stages);
  for (int i = 0; i < stages; ++i) {
    in[i] = ckt.node("in" + std::to_string(i));
    out[i] = ckt.node("out" + std::to_string(i));
  }
  std::vector<ringosc::Ladder> ladders;
  for (int i = 0; i < stages; ++i) {
    ringosc::add_inverter(ckt, "inv" + std::to_string(i), in[i], out[i], vdd,
                          tech, rc.k);
    ladders.push_back(ringosc::add_rlc_ladder(
        ckt, "line" + std::to_string(i), out[i], in[(i + 1) % stages],
        tech.line(l), rc.h, nseg));
  }
  const double t_est = 2.0 * stages * tau;
  TransientOptions& o = ring.opts;
  o.tstop = (2 + 5) * t_est;
  o.dt = t_est / 250;
  o.record_start = 2 * t_est;
  for (int i = 0; i < stages; ++i) {
    const double vi = i % 2 == 0 ? tech.vdd : 0.0;
    const double vo = tech.vdd - vi;
    o.initial_voltages.emplace_back(in[i], vi);
    o.initial_voltages.emplace_back(out[i], vo);
    for (const NodeId nd : ladders[i].interior_nodes()) {
      o.initial_voltages.emplace_back(nd, vo);
    }
  }
  o.probes = {Probe::node_voltage(in[1], "v_in"),
              Probe::node_voltage(out[1], "v_out")};
}

/// The state run_transient starts a UIC run from, with device history.
std::vector<double> initial_state(Ring& ring) {
  ring.ckt.finalize();
  std::vector<double> x(static_cast<std::size_t>(ring.ckt.unknown_count()));
  for (const auto& [node, v] : ring.opts.initial_voltages) x[node - 1] = v;
  StampContext ctx;
  ctx.analysis = Analysis::kTransient;
  ctx.x = &x;
  for (const auto& dev : ring.ckt.devices()) dev->init_history(ctx);
  return x;
}

TEST(Bordered, PartitionOfTheBenchmarkRing) {
  // The border is every unknown a MOSFET stamps (vdd, in0-4, out0-4) plus
  // the supply's branch current, whose row and column touch only vdd.
  Ring ring;
  build_ring(benchmark_rings()[0], ring);
  std::vector<double> x = initial_state(ring);
  StampContext ctx;
  ctx.analysis = Analysis::kTransient;
  ctx.method = Integrator::kBackwardEuler;
  ctx.dt = ring.opts.dt;
  ctx.time = ctx.dt;
  ctx.x = &x;
  detail::SolveWorkspace ws;
  ASSERT_TRUE(detail::solve_bordered(ring.ckt, ctx, 1e-12, ws, true));
  std::vector<std::string> border;
  const int n_nodes = ring.ckt.node_count() - 1;
  for (const int u : ws.bordered.border) {
    border.push_back(u < n_nodes ? ring.ckt.node_name(u + 1) : "branch");
  }
  const std::vector<std::string> want = {
      "vdd", "in0", "out0", "in1", "out1", "in2", "out2",
      "in3", "out3", "in4", "out4", "branch"};
  EXPECT_EQ(border, want);
  EXPECT_EQ(ring.ckt.find("vsupply")->branch_base(),
            ws.bordered.border.back());
  EXPECT_EQ(ws.bordered.interior.size(), 85u);
}

/// Walks one Newton iteration at a time from the start state of benchmark
/// ring `which`, over its first 40 steps (backward-Euler start-up, then
/// trapezoidal) and 6 iterates each, calling `visit(ckt, ctx, it, ref)` at
/// every iterate with the full path's answer `ref` from a fresh
/// factorization, with fresh pivoting.  The walk follows newton_solve's
/// damped update of `ref`.
template <class Visit>
void walk_iterates(std::size_t which, Visit visit) {
  Ring ring;
  build_ring(benchmark_rings()[which], ring);
  std::vector<double> x = initial_state(ring);
  const int n_nodes = ring.ckt.node_count() - 1;
  StampContext ctx;
  ctx.analysis = Analysis::kTransient;
  ctx.dt = ring.opts.dt;
  for (int step = 0; step < 40; ++step) {
    ctx.method = step < 2 ? Integrator::kBackwardEuler
                          : Integrator::kTrapezoidal;
    ctx.time = (step + 1) * ctx.dt;
    std::vector<double> x_try = x;
    ctx.x = &x_try;
    for (int it = 0; it < 6; ++it) {
      detail::SolveWorkspace fresh;
      const auto ref = detail::solve_full(ring.ckt, ctx, 1e-12, fresh);
      SCOPED_TRACE("config " + std::to_string(which) + " step " +
                   std::to_string(step) + " it " + std::to_string(it));
      visit(ring.ckt, ctx, it, ref);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        double delta = ref[i] - x_try[i];
        if (static_cast<int>(i) < n_nodes) delta = std::clamp(delta, -1.0, 1.0);
        x_try[i] += delta;
      }
    }
    x = x_try;
    ctx.x = &x;
    for (const auto& dev : ring.ckt.devices()) dev->commit_step(ctx);
  }
}

void expect_close(const std::vector<double>& got,
                  const std::vector<double>& ref) {
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-12 * (1.0 + std::abs(ref[i])))
        << "unknown " << i;
  }
}

TEST(Bordered, EachIterationMatchesTheFullSparseLu) {
  // One Newton iteration through either path, at the start state and along
  // the iterates and steps that follow: the same solution up to round-off.
  for (const std::size_t which : {std::size_t{0}, std::size_t{3}, std::size_t{9}}) {
    detail::SolveWorkspace bordered;
    int compared = 0;
    walk_iterates(which, [&](const Circuit& ckt, const StampContext& ctx,
                             int it, const std::vector<double>& ref) {
      const auto got = detail::solve_bordered(ckt, ctx, 1e-12, bordered, it == 0);
      ASSERT_TRUE(got.has_value());
      expect_close(*got, ref);
      ++compared;
    });
    EXPECT_EQ(compared, 240);
    EXPECT_EQ(bordered.border_factorizations, 240);
    // Two keys: one fresh interior factorization each.
    EXPECT_EQ(bordered.full_factorizations, 2);
    EXPECT_EQ(bordered.refactorizations, 0);
  }
}

TEST(Bordered, FullPathRefactorKeepsItsDigits) {
  // The full path keeps one workspace across the same iterates, so most of
  // its solves refactor numerically under the order, scales and pivots of
  // an earlier iterate.  A stale pivot can lose digits (without the
  // residual check one start-up iterate here sat 5e-10 off); a refactor
  // whose solve fails the check is replaced by a fresh factorization.
  for (const std::size_t which : {std::size_t{0}, std::size_t{3}, std::size_t{9}}) {
    detail::SolveWorkspace kept;
    walk_iterates(which, [&](const Circuit& ckt, const StampContext& ctx,
                             int, const std::vector<double>& ref) {
      expect_close(detail::solve_full(ckt, ctx, 1e-12, kept), ref);
    });
    EXPECT_EQ(kept.full_factorizations + kept.refactorizations, 240);
    EXPECT_GT(kept.refactorizations, 200);
  }
}

TEST(Bordered, BenchmarkRingsKeepTheirPeriodsAndNewtonCounts) {
  // Periods and Newton-iteration totals of the ten benchmark rings as the
  // full sparse LU of every iteration gave them: the bordered solve moves
  // each period by round-off only and every step converges on the same
  // iteration.
  struct Want {
    double period;
    long newton;
  };
  const std::vector<Want> want = {
      {1.1491664185800645e-09, 5249}, {1.6473661646477979e-09, 5248},
      {2.11187368777933e-09, 5269},   {1.1381361840094428e-09, 5622},
      {1.3608103343574073e-09, 5694}, {3.1997036509098027e-09, 5249},
      {3.5615264061729088e-09, 5246}, {4.4256800678411873e-09, 5251},
      {5.6290659346283718e-09, 5266}, {6.6672499840608042e-09, 5309},
  };
  ASSERT_EQ(want.size(), benchmark_rings().size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const RingCase& rc = benchmark_rings()[i];
    SCOPED_TRACE((rc.nm250 ? "250nm, l = " : "100nm, l = ") +
                 std::to_string(rc.l_nh_per_mm));
    Ring ring;
    build_ring(rc, ring);
    const auto r = run_transient(ring.ckt, ring.opts);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.steps_accepted, 1750);
    EXPECT_EQ(r.steps_rejected, 0);
    EXPECT_EQ(r.newton_iterations, want[i].newton);
    const auto period = analysis::oscillation_period(
        r.time, r.signal("v_out"), 0.5 * ring.vdd, r.time.front(), 3);
    ASSERT_TRUE(period.has_value());
    EXPECT_NEAR(*period, want[i].period, 1e-9 * want[i].period);
    // The interior factors once per key (BE start-up, trapezoidal, and a
    // last step shortened onto tstop); every iteration solves the border.
    EXPECT_GE(r.factorizations, 2);
    EXPECT_LE(r.factorizations, 3);
    EXPECT_EQ(r.border_factorizations, r.newton_iterations);
  }
}

TEST(Bordered, LongRingFullPathFactorsWithLittleFill) {
  // A 121-stage ring on 6-segment ladders at its own step: 2,301 unknowns
  // on the full path (its border is too large).  In natural order its LU
  // filled to 868,905 nonzeros, 122 times the matrix; ordered, it stays
  // under 4 times.
  Ring ring;
  build_ring(benchmark_rings()[0], ring, 121, 6);
  std::vector<double> x = initial_state(ring);
  StampContext ctx;
  ctx.analysis = Analysis::kTransient;
  ctx.method = Integrator::kBackwardEuler;
  ctx.dt = ring.opts.dt;
  ctx.time = ctx.dt;
  ctx.x = &x;
  detail::SolveWorkspace ws;
  detail::solve_full(ring.ckt, ctx, 1e-12, ws);
  const int n = ring.ckt.unknown_count();
  ASSERT_EQ(n, 2301);
  const int nnz_a = ws.compressor.compress(n, n, ws.triplets).nnz();
  EXPECT_EQ(nnz_a, 7142);
  EXPECT_EQ(ws.factor_nonzeros, ws.lu->l_nnz() + ws.lu->u_nnz());
  EXPECT_LT(ws.factor_nonzeros, 4 * nnz_a);
}

/// A lone CMOS inverter: every unknown is on the border (the MOSFETs touch
/// vdd, in and out; the sources' branches touch only those), so the
/// interior is empty.
TransientResult run_lone_inverter() {
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
  return run_transient(c, o);
}

TEST(Bordered, LoneInverterTakesTheFullPath) {
  const auto r = run_lone_inverter();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.factorizations, r.newton_iterations);
  EXPECT_EQ(r.border_factorizations, 0);
}

TEST(Bordered, BorderSizeDecidesThePath) {
  // The bordered solve declines a border whose |B|^3 exceeds 250 times the
  // unknown count, whatever its share.  One-segment ladders leave a border
  // of 12 in 22 unknowns (55%, 1728 / 22 = 79): bordered.  A 21-stage ring
  // on 6-segment ladders has a border of 44 in 401 (212 per unknown):
  // bordered.  A 15-stage ring on one-segment ladders has 32 in 62 (528 per
  // unknown): the full path.
  struct Shape {
    int stages, nseg, unknowns;
    bool bordered;
  };
  for (const Shape& shape : {Shape{5, 1, 22, true}, Shape{21, 6, 401, true},
                             Shape{15, 1, 62, false}}) {
    SCOPED_TRACE(std::to_string(shape.stages) + " stages, " +
                 std::to_string(shape.nseg) + " segments");
    Ring ring;
    build_ring(benchmark_rings()[0], ring, shape.stages, shape.nseg);
    ring.opts.tstop = 40 * ring.opts.dt;
    ring.opts.record_start = 0.0;
    const auto r = run_transient(ring.ckt, ring.opts);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(ring.ckt.unknown_count(), shape.unknowns);
    if (shape.bordered) {
      EXPECT_EQ(r.border_factorizations, r.newton_iterations);
      EXPECT_LE(r.factorizations, 3);  // one per key
    } else {
      EXPECT_EQ(r.border_factorizations, 0);
      EXPECT_EQ(r.factorizations, r.newton_iterations);
    }
  }
}

std::int64_t counter(const obs::MetricsSnapshot& s, const std::string& name) {
  for (const auto& [k, v] : s.counters) {
    if (k == name) return v;
  }
  return 0;
}

TEST(Bordered, CountsReachTheRegistryOncePerTransient) {
  auto& reg = obs::Registry::global();
  auto before = reg.snapshot();
  Ring ring;
  build_ring(benchmark_rings()[0], ring);
  const auto r = run_transient(ring.ckt, ring.opts);
  auto delta = reg.snapshot().delta_since(before);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.factorizations, 2);  // one per key
  EXPECT_EQ(r.border_factorizations, 5249);
  EXPECT_EQ(counter(delta, "spice.transient.runs"), 1);
  EXPECT_EQ(counter(delta, "spice.transient.newton_iterations"), 5249);
  EXPECT_EQ(counter(delta, "spice.transient.factorizations"), 2);
  EXPECT_EQ(counter(delta, "spice.transient.border_factorizations"), 5249);
  // The 85-unknown interior, factored afresh for each of the two keys.
  EXPECT_EQ(counter(delta, "spice.transient.factor_nonzeros"), 2 * 330);

  before = reg.snapshot();
  const auto inv = run_lone_inverter();
  delta = reg.snapshot().delta_since(before);
  ASSERT_TRUE(inv.completed);
  EXPECT_EQ(counter(delta, "spice.transient.factorizations"),
            inv.newton_iterations);
  EXPECT_EQ(counter(delta, "spice.transient.border_factorizations"), 0);
  // Five unknowns, factored afresh once; every later iteration refactors.
  EXPECT_EQ(counter(delta, "spice.transient.factor_nonzeros"), 16);
}

/// A benchmark ring plus a contradictory pair of voltage sources: on the
/// supply (a singular border) or on a node of an extra RC ladder (a
/// singular interior).
Ring singular_ring(bool on_border) {
  Ring ring;
  build_ring(benchmark_rings()[0], ring);
  Circuit& c = ring.ckt;
  NodeId node = c.node("vdd");
  if (!on_border) {
    node = c.node("p");
    ringosc::add_rlc_ladder(c, "extra", node, c.node("q"),
                            tline::LineParams{1e4, 0.0, 1e-10}, 1e-3, 6);
  }
  c.add_vsource("Vclash1", node, c.ground(), DcSpec{1.0});
  c.add_vsource("Vclash2", node, c.ground(), DcSpec{1.0});
  return ring;
}

TEST(Bordered, SingularSystemsFallBackAndThrowAsTheFullPathDoes) {
  for (const bool on_border : {true, false}) {
    SCOPED_TRACE(on_border ? "singular border" : "singular interior");
    Ring ring = singular_ring(on_border);
    std::vector<double> x = initial_state(ring);
    StampContext ctx;
    ctx.analysis = Analysis::kTransient;
    ctx.method = Integrator::kBackwardEuler;
    ctx.dt = ring.opts.dt;
    ctx.time = ctx.dt;
    ctx.x = &x;
    detail::SolveWorkspace ws;
    EXPECT_FALSE(detail::solve_bordered(ring.ckt, ctx, 1e-12, ws, true));
    // A singular interior retires the key; a singular border only the
    // iteration, after its dense LU.
    EXPECT_EQ(ws.bordered.usable, on_border);
    EXPECT_EQ(ws.border_factorizations, on_border ? 1 : 0);
    EXPECT_THROW(detail::solve_full(ring.ckt, ctx, 1e-12, ws),
                 std::runtime_error);
    Ring again = singular_ring(on_border);
    EXPECT_THROW(run_transient(again.ckt, again.opts), std::runtime_error);
  }
}

}  // namespace
}  // namespace rlc::spice
