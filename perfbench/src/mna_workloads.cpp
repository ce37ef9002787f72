// mna_linear and mna_ring: whole transients through spice::run_transient on
// circuits assembled with the public ringosc builders, so the
// TransientResult step and Newton counts stay visible.
//
// mna_linear: fixed-dt step responses of 2- and 3-conductor coupled RLC
// buses driven through linear repeater models (the xtalk_* and
// CoupledVsSpice circuits at the quick resolution).  The matrix never
// changes during a run.
// mna_ring: the paper's odd-stage ring of level-1 MOSFET inverters driving
// RLC pi-ladders (Figs. 9-11), sized so one run holds many transients.  The
// matrix changes at every Newton iteration.

#include <algorithm>
#include <climits>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "rlc/analysis/reliability.hpp"
#include "rlc/analysis/signal_metrics.hpp"
#include "rlc/core/delay.hpp"
#include "rlc/core/elmore.hpp"
#include "rlc/core/exact_delay.hpp"
#include "rlc/io/json_reader.hpp"
#include "rlc/ringosc/coupled_bus.hpp"
#include "rlc/ringosc/inverter.hpp"
#include "rlc/ringosc/ladder.hpp"
#include "rlc/scenario/spec.hpp"
#include "rlc/spice/transient.hpp"
#include "rlc/tline/coupled_line.hpp"

namespace pb {
namespace {

using rlc::spice::Circuit;
using rlc::spice::NodeId;
using rlc::spice::Probe;

/// Far-end agreement with core::exact_coupled_step_response at the quick
/// MNA resolution (16 segments, 1200 steps): the bound the repository's
/// scenario validator applies to the quick xtalk_* runs.
constexpr double kWaveformTolerance = 5e-2;
/// Transients the gate compares with the exact engine.
constexpr std::size_t kGateWaveforms = 6;

/// One transient to run, decoded from an input line.
struct Config {
  std::string line;
  std::string kind;  // "bus" | "ring"
  rlc::core::Technology tech;
  double l = 0.0;
  int nseg = 16;
  // bus
  int conductors = 2;
  double cc = 0.0, km = 0.0;
  std::vector<double> initial, target;
  int steps = 1200;
  double tstop_tau = 10.0;
  // ring
  int stages = 5;
  double steps_per_period = 400.0;
  double settle = 3.0, cycles = 5.0;
  // derived in set-up
  double h = 0.0, k = 0.0, tau = 0.0;
};

std::vector<double> numbers(const rlc::io::JsonValue& v, const char* key) {
  std::vector<double> out;
  if (const rlc::io::JsonValue* a = v.find(key)) {
    for (const auto& x : a->items()) out.push_back(x.as_number());
  }
  return out;
}

Config parse_config(const std::string& line) {
  const rlc::io::JsonValue v = rlc::io::parse_json(line);
  Config c;
  c.line = line;
  c.kind = v.string_or("kind", "");
  c.tech = rlc::scenario::technology_by_name(v.string_or("tech", "100nm"));
  c.l = v.number_or("l", 0.0);
  c.nseg = static_cast<int>(v.int_or("nseg", 16));
  c.conductors = static_cast<int>(v.int_or("conductors", 2));
  c.cc = v.number_or("ccf", 0.0) * c.tech.line(c.l).c;
  c.km = v.number_or("km", 0.0);
  c.initial = numbers(v, "initial");
  c.target = numbers(v, "target");
  c.steps = static_cast<int>(v.int_or("steps", 1200));
  c.tstop_tau = v.number_or("tstop_tau", 10.0);
  c.stages = static_cast<int>(v.int_or("stages", 5));
  c.steps_per_period = v.number_or("steps_per_period", 400.0);
  c.settle = v.number_or("settle", 3.0);
  c.cycles = v.number_or("cycles", 5.0);
  // The paper's operating point: RC-optimal segmentation and sizing, with
  // the two-pole delay as the time scale (as the xtalk scenarios and
  // ringosc::simulate_ring derive it).
  const auto rc = rlc::core::rc_optimum(c.tech.rep, c.tech.r, c.tech.c);
  c.h = rc.h;
  c.k = rc.k;
  rlc::tline::LineParams eff = c.tech.line(c.l);
  if (c.kind == "bus") eff.c += 2.0 * c.cc;
  const auto d = rlc::core::segment_delay(c.tech.rep, eff, c.h, c.k);
  c.tau = d.converged ? d.tau : rc.tau;
  if (c.kind == "bus" &&
      (c.initial.size() != static_cast<std::size_t>(c.conductors) ||
       c.target.size() != c.initial.size())) {
    throw std::runtime_error("bus config needs initial/target per conductor: " + line);
  }
  if (c.kind != "bus" && c.kind != "ring") throw std::runtime_error("bad config: " + line);
  return c;
}

/// A circuit ready to simulate.
struct Built {
  Circuit ckt;
  rlc::spice::TransientOptions opts;
};

/// Coupled bus: each conductor driven through its repeater (Rs + Cp) by a
/// near-ideal step, loaded by Cl, pre-charged to its initial level.
void build_bus(const Config& c, Built& b) {
  const std::size_t n = static_cast<std::size_t>(c.conductors);
  const auto dl = c.tech.rep.scaled(c.k);
  Circuit& ckt = b.ckt;
  std::vector<NodeId> src(n), drv(n), end(n);
  for (std::size_t w = 0; w < n; ++w) {
    const std::string ws = std::to_string(w);
    src[w] = ckt.node("src" + ws);
    drv[w] = ckt.node("drv" + ws);
    end[w] = ckt.node("end" + ws);
    if (c.initial[w] == c.target[w]) {
      ckt.add_vsource("V" + ws, src[w], ckt.ground(), rlc::spice::DcSpec{c.target[w]});
    } else {
      ckt.add_vsource("V" + ws, src[w], ckt.ground(),
                      rlc::spice::PulseSpec{c.initial[w], c.target[w], 0.0, 1e-14,
                                            1e-14, 1.0, 0.0});
    }
    ckt.add_resistor("Rs" + ws, src[w], drv[w], dl.rs_eff);
    ckt.add_capacitor("Cp" + ws, drv[w], ckt.ground(), dl.cp_eff);
    ckt.add_capacitor("Cl" + ws, end[w], ckt.ground(), dl.cl_eff);
  }
  const auto bus = rlc::ringosc::add_coupled_bus(ckt, "bus", drv, end, c.tech.line(c.l),
                                                 {c.cc, c.km}, c.h, c.nseg);
  auto& o = b.opts;
  o.tstop = c.tstop_tau * c.tau;
  o.dt = o.tstop / c.steps;
  for (std::size_t w = 0; w < n; ++w) {
    o.probes.push_back(Probe::node_voltage(end[w], "v" + std::to_string(w)));
    if (c.initial[w] != 0.0) {
      o.initial_voltages.emplace_back(src[w], c.initial[w]);
      o.initial_voltages.emplace_back(drv[w], c.initial[w]);
      o.initial_voltages.emplace_back(end[w], c.initial[w]);
      for (NodeId nd : bus[w].interior_nodes()) {
        o.initial_voltages.emplace_back(nd, c.initial[w]);
      }
    }
  }
}

/// Ring oscillator: stage i is a size-k inverter in[i] -> out[i] driving a
/// length-h ladder to in[i+1], started with one logic clash so it settles
/// into the fundamental mode (as ringosc::simulate_ring does).
void build_ring(const Config& c, Built& b) {
  Circuit& ckt = b.ckt;
  const double vdd_v = c.tech.vdd;
  const NodeId vdd = ckt.node("vdd");
  ckt.add_vsource("vsupply", vdd, ckt.ground(), rlc::spice::DcSpec{vdd_v});
  std::vector<NodeId> in(static_cast<std::size_t>(c.stages)), out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = ckt.node("in" + std::to_string(i));
    out[i] = ckt.node("out" + std::to_string(i));
  }
  std::vector<rlc::ringosc::Ladder> ladders;
  for (std::size_t i = 0; i < in.size(); ++i) {
    rlc::ringosc::add_inverter(ckt, "inv" + std::to_string(i), in[i], out[i], vdd,
                               c.tech, c.k);
    ladders.push_back(rlc::ringosc::add_rlc_ladder(
        ckt, "line" + std::to_string(i), out[i], in[(i + 1) % in.size()],
        c.tech.line(c.l), c.h, c.nseg));
  }
  const double t_est = 2.0 * c.stages * c.tau;
  auto& o = b.opts;
  o.tstop = (c.settle + c.cycles) * t_est;
  o.dt = t_est / c.steps_per_period;
  o.record_start = c.settle * t_est;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double vi = i % 2 == 0 ? vdd_v : 0.0;
    const double vo = vdd_v - vi;
    o.initial_voltages.emplace_back(in[i], vi);
    o.initial_voltages.emplace_back(out[i], vo);
    for (const NodeId nd : ladders[i].interior_nodes()) {
      o.initial_voltages.emplace_back(nd, vo);
    }
  }
  o.probes = {Probe::node_voltage(in[1], "v_in"), Probe::node_voltage(out[1], "v_out"),
              Probe::resistor_current(*ladders[0].middle_resistor(), "i_wire")};
}

/// What one transient produced, kept for counts and the gate.
struct OpOutcome {
  bool ok = false;
  long unknowns = 0;
  long steps_accepted = 0, steps_rejected = 0, newton_iterations = 0;
  double period = 0.0;  // ring
  rlc::spice::TransientResult tran;  // kept only for the gate sample
};

class MnaBench {
 public:
  MnaBench(const Args& args, bool ring) : args_(args), ring_(ring), input_(read_input(args.input)) {}

  int run() {
    for (const std::string& line : input_.section("timed")) configs_.push_back(parse_config(line));
    if (configs_.empty()) throw std::runtime_error("no timed configs");
    for (const std::string& line : input_.section("warmup")) {
      if (!op(parse_config(line), nullptr, -1, false).ok) {
        throw std::runtime_error("warm-up transient failed: " + line);
      }
    }
    signal_ready();
    if (args_.mode == Mode::kSetup) return finish();
    const long count_ops = input_.meta_int("count_ops");
    if (args_.mode == Mode::kCounts) {
      count_phase(count_ops);
      return finish();
    }
    long first = 0;
    double untraced_s = args_.seconds;
    if (args_.mode == Mode::kTraced) {
      count_phase(count_ops);
      const PhaseResult t = traced_phase(count_ops);
      first = count_ops + t.ops;
      untraced_s = std::max(0.4 * args_.seconds, args_.seconds - t.wall_s);
    }
    Samples lat;
    Windows windows(window());
    const PhaseResult p = timed_loop(untraced_s, window(), LONG_MAX, [&](long i) {
      const auto t0 = Clock::now();
      OpOutcome r = op(config(first + i), nullptr, -1, keep(first + i));
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      lat.add(us);
      windows.add(t0, us);
      return settle(first + i, std::move(r));
    });
    report_.doc.set("peak_rss_mb", peak_rss_mb());
    report_.phase(args_.mode == Mode::kTraced ? "untraced" : "timed", p);
    report_.latency(lat, windows);
    report_.attempted += p.ops;
    report_.failed += p.failed;
    gate();
    return finish();
  }

 private:
  const Args& args_;
  bool ring_;
  Input input_;
  std::vector<Config> configs_;
  std::vector<std::pair<long, rlc::spice::TransientResult>> kept_;  // gate sample
  rlc::io::JsonArray periods_;  // ring: [op, config index, period] per op
  Report report_;

  long block() const { return input_.meta_int("block"); }
  long window() const { return input_.meta_int("window"); }
  std::size_t config_index(long i) const {
    return static_cast<std::size_t>(i) % configs_.size();
  }
  const Config& config(long i) const { return configs_[config_index(i)]; }
  bool keep(long) const { return !ring_ && kept_.size() < kGateWaveforms; }

  /// One operation: assemble, simulate, measure.  Spans go to `log` when
  /// tracing, under a "bench.op" span for request `rid`.
  OpOutcome op(const Config& c, SpanLog* log, long rid, bool keep_waveforms) {
    int root = -1;
    OpOutcome r;
    in_span(log, "bench.op", -1, rid, false, &root, [&] {
      Built b;
      in_span(log, "ringosc.build", root, rid, false, nullptr, [&] {
        if (c.kind == "ring") {
          build_ring(c, b);
        } else {
          build_bus(c, b);
        }
      });
      r.tran = in_span(log, "spice.transient", root, rid, false, nullptr,
                       [&] { return rlc::spice::run_transient(b.ckt, b.opts); });
      r.unknowns = b.ckt.unknown_count();
      r.steps_accepted = r.tran.steps_accepted;
      r.steps_rejected = r.tran.steps_rejected;
      r.newton_iterations = r.tran.newton_iterations;
      r.ok = r.tran.completed && r.tran.time.size() >= 8;
      if (r.ok && c.kind == "ring") {
        in_span(log, "analysis.measure", root, rid, false, nullptr, [&] {
          const auto& t = r.tran.time;
          const auto& v_out = r.tran.signal("v_out");
          const auto period = rlc::analysis::oscillation_period(
              t, v_out, 0.5 * c.tech.vdd, t.front(), 3);
          const auto exc = rlc::analysis::rail_excursion(r.tran.signal("v_in"), c.tech.vdd);
          const auto jd = rlc::analysis::current_density(
              t, r.tran.signal("i_wire"), c.tech.width * c.tech.thickness);
          r.period = period.value_or(0.0);
          r.ok = period.has_value() && std::isfinite(exc.v_max) && std::isfinite(jd.j_rms);
        });
      }
      if (!keep_waveforms) r.tran = {};
    });
    return r;
  }

  /// Book-keeping after a timed op, outside its latency: the ring's period
  /// goes to run.py for the check against the recorded periods; a bus
  /// waveform of the gate sample is kept.
  bool settle(long i, OpOutcome r) {
    if (ring_) {
      rlc::io::JsonArray row;
      row.push(static_cast<long long>(i));
      row.push(static_cast<long long>(config_index(i)));
      row.push(r.period);
      periods_.push(row);
    } else if (keep(i) && r.ok) {
      kept_.emplace_back(i, std::move(r.tran));
    }
    if (!r.ok) report_.fail("transient incomplete or not oscillating: " + config(i).line);
    return r.ok;
  }

  /// Deterministic per-op counts over the first `n` ops.
  void count_phase(long n) {
    Counts total;
    for (long i = 0; i < n; ++i) {
      const OpOutcome r = op(config(i), nullptr, i, false);
      ++report_.attempted;
      if (!r.ok) report_.fail("count phase: transient failed: " + config(i).line);
      total["spice.unknowns"] += static_cast<double>(r.unknowns);
      total["spice.steps_accepted"] += static_cast<double>(r.steps_accepted);
      total["spice.steps_rejected"] += static_cast<double>(r.steps_rejected);
      total["spice.newton_iterations"] += static_cast<double>(r.newton_iterations);
    }
    report_.counts(total, n);
  }

  /// Traced phase, 60% of --seconds: real nested spans bench.op >
  /// ringosc.build, spice.transient, analysis.measure; Newton iterations
  /// accumulate alongside.
  PhaseResult traced_phase(long first) {
    SpanLog log;
    double newton = 0.0;
    const PhaseResult p = timed_loop(0.6 * args_.seconds, block(), LONG_MAX, [&](long i) {
      const OpOutcome r = op(config(first + i), &log, first + i, false);
      newton += static_cast<double>(r.newton_iterations);
      if (!r.ok) report_.fail("traced transient failed: " + config(first + i).line);
      return r.ok;
    });
    report_.phase("traced", p);
    report_.attempted += p.ops;
    report_.failed += p.failed;
    report_.doc.set("traced_newton_iterations", newton);
    report_.doc.set("spans", static_cast<long long>(log.size()));
    if (!log.write(args_.spans)) report_.fail("cannot write " + args_.spans);
    return p;
  }

  /// mna_linear: far-end waveforms against the exact modal engine on the
  /// validator's probe grid (0.3..8 tau, x1.25).  mna_ring is checked by
  /// run.py against the recorded periods.
  void gate() {
    double worst = 0.0;
    for (const auto& [i, tran] : kept_) {
      const Config& c = config(i);
      const auto bus = rlc::tline::symmetric_bus(c.tech.line(c.l), c.cc, c.km,
                                                 static_cast<std::size_t>(c.conductors));
      std::vector<double> times;
      for (double m = 0.3; m <= 8.0; m *= 1.25) times.push_back(m * c.tau);
      const auto exact = rlc::core::exact_coupled_step_response(
          bus, c.h, c.tech.rep.scaled(c.k), {c.initial, c.target}, times);
      double err = 0.0;
      for (std::size_t w = 0; w < exact.size(); ++w) {
        const auto& v = tran.signal("v" + std::to_string(w));
        for (std::size_t j = 0; j < times.size(); ++j) {
          err = std::max(err, std::abs(exact[w][j] - interp(tran.time, v, times[j])));
        }
      }
      worst = std::max(worst, err);
      if (!(err <= kWaveformTolerance)) {
        report_.fail("far-end waveform off the exact engine by " + std::to_string(err) +
                     ": " + c.line);
      }
    }
    if (!ring_) {
      report_.doc.set("gate_checked", static_cast<long long>(kept_.size()));
      report_.doc.set("worst_waveform_error", worst);
    } else {
      report_.doc.set("periods", periods_);
    }
  }

  static double interp(const std::vector<double>& ts, const std::vector<double>& vs,
                       double t) {
    const auto it = std::lower_bound(ts.begin(), ts.end(), t);
    if (it == ts.begin()) return vs.front();
    if (it == ts.end()) return vs.back();
    const std::size_t i = static_cast<std::size_t>(it - ts.begin());
    const double w = (t - ts[i - 1]) / (ts[i] - ts[i - 1]);
    return vs[i - 1] + w * (vs[i] - vs[i - 1]);
  }

  int finish() {
    report_.doc.set("workload", ring_ ? "mna_ring" : "mna_linear");
    if (!report_.write(args_.out)) return 1;
    return report_.failed == 0 ? 0 : 1;
  }
};

}  // namespace

int run_mna_workload(const Args& args, bool ring) {
  MnaBench bench(args, ring);
  return bench.run();
}

}  // namespace pb
