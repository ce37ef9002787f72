#include "rlc/core/optimize_api.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <cstdio>

#include "rlc/base/cancel.hpp"
#include "rlc/core/exact_delay.hpp"
#include "rlc/math/brent.hpp"
#include "rlc/obs/trace.hpp"
#include "rlc/tline/coupled_line.hpp"

namespace rlc::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

rlc::Status bad(const std::string& what) {
  return rlc::Status::invalid_argument(what);
}

/// %.6g render for Status messages (core does not depend on rlc_io).
std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

rlc::Status OptimizeDomain::validate() const {
  const auto finite_pos = [](double v) { return std::isfinite(v) && v > 0.0; };
  if (!finite_pos(h_min_scale) || !finite_pos(h_max_scale) ||
      !(h_min_scale < h_max_scale)) {
    return bad("domain h scales must satisfy 0 < h_min_scale < h_max_scale");
  }
  if (!finite_pos(k_min_scale) || !finite_pos(k_max_scale) ||
      !(k_min_scale < k_max_scale)) {
    return bad("domain k scales must satisfy 0 < k_min_scale < k_max_scale");
  }
  if (h_points < 2 || k_points < 2) {
    return bad("domain h_points/k_points must be >= 2");
  }
  return rlc::Status::ok();
}

std::vector<double> log_grid(double ref, double scale_min, double scale_max,
                             int points) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(points));
  const double ratio = scale_max / scale_min;
  for (int i = 0; i < points; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(points - 1);
    out.push_back(ref * scale_min * std::pow(ratio, t));
  }
  return out;
}

rlc::Status validate_optimize_request(const OptimizeRequest& req) {
  if (!std::isfinite(req.l) || req.l < 0.0) {
    return bad("inductance l must be finite and >= 0");
  }
  if (!(req.optim.f > 0.0 && req.optim.f < 1.0)) {
    return bad("threshold f must be in (0, 1)");
  }
  if (req.optim.max_iterations < 1) {
    return bad("max_iterations must be >= 1");
  }
  if (!(req.optim.residual_tolerance > 0.0)) {
    return bad("residual_tolerance must be > 0");
  }
  if (req.conductors < 1 || req.conductors > 8) {
    return bad("conductors must be in 1..8");
  }
  if (!std::isfinite(req.coupling_cc) || req.coupling_cc < 0.0) {
    return bad("coupling_cc must be finite and >= 0");
  }
  const double km_bound = tline::coupling_km_bound(req.conductors);
  if (!std::isfinite(req.coupling_km) ||
      !(std::abs(req.coupling_km) < km_bound)) {
    return bad("coupling_km must satisfy |km| < " + fmt(km_bound) +
               " at conductors = " + std::to_string(req.conductors) +
               " (got " + fmt(req.coupling_km) + ")");
  }
  if (!std::isfinite(req.constraints.noise_vmax) ||
      req.constraints.noise_vmax < 0.0) {
    return bad("noise_vmax must be finite and >= 0");
  }
  if (req.conductors == 1 &&
      (req.coupling_cc != 0.0 || req.coupling_km != 0.0 ||
       req.constraints.noise_vmax != 0.0)) {
    return bad("coupling_cc/coupling_km/noise_vmax require conductors >= 2");
  }
  const double eps = req.constraints.delay_slack_eps;
  if (std::isnan(eps) || eps < 0.0) {
    return bad("delay_slack_eps must be >= 0 (or infinity for unconstrained)");
  }
  if (req.objective == Objective::kPower) {
    if (req.conductors != 1) {
      return bad("objective \"power\" supports conductors == 1 only");
    }
    if (!(req.power.f_clock > 0.0) || !std::isfinite(req.power.f_clock)) {
      return bad("power.f_clock must be finite and > 0");
    }
    if (!(req.power.activity > 0.0) || !(req.power.activity <= 1.0)) {
      return bad("power.activity must be in (0, 1]");
    }
    if (!(req.power.vt_fraction > 0.0) || !(req.power.vt_fraction < 0.5)) {
      return bad("power.vt_fraction must be in (0, 0.5)");
    }
  }
  return req.domain.validate();
}

namespace {

/// Delay per unit length at (h, k), or nullopt when the threshold-delay
/// solve fails (extreme geometries at the domain edges).
std::optional<double> dpl_at(const Repeater& rep, const tline::LineParams& line,
                             double h, double k, double f) {
  DelayOptions dopts;
  dopts.f = f;
  const DelayResult dr = segment_delay(rep, line, h, k, dopts);
  if (!dr.converged) return std::nullopt;
  return dr.tau / h;
}

/// ---- objective kDelay ----------------------------------------------------

rlc::StatusOr<OptimizeResponse> solve_delay(const Technology& tech,
                                            const OptimizeRequest& req) {
  OptimizeResponse resp;
  resp.objective = Objective::kDelay;

  if (req.conductors == 1) {
    const OptimResult r = optimize_rlc(tech, req.l, req.optim);
    if (!r.converged) {
      return rlc::Status::no_convergence(
          "optimizer did not converge (Newton budget " +
          std::to_string(req.optim.max_iterations) +
          (req.optim.allow_fallback ? ", Nelder-Mead fallback exhausted)"
                                    : ")"));
    }
    resp.sizing = r;
    return resp;
  }

  // Coupled bus: the wires are sized as one, on the quiet-neighbour
  // effective line (every conductor sees the full Miller-1 coupling
  // capacitance, d_max * cc in the homogenized bus, on top of its self c).
  const tline::LineParams line = tech.line(req.l);
  tline::LineParams eff = line;
  eff.c += (req.conductors >= 3 ? 2.0 : 1.0) * req.coupling_cc;
  const OptimResult un = optimize_rlc(tech.rep, eff, req.optim);
  if (!un.converged) {
    return rlc::Status::no_convergence(
        "coupled optimizer did not converge (Newton budget " +
        std::to_string(req.optim.max_iterations) + ")");
  }
  resp.sizing = un;

  // Exact quiet-victim noise of an edge conductor when the center conductor
  // switches rail to rail, on the time scale of the segment's f-delay.
  const tline::CoupledLine bus = tline::symmetric_bus(
      line, req.coupling_cc, req.coupling_km, req.conductors);
  CoupledExcitation exc{std::vector<double>(req.conductors, 0.0),
                        std::vector<double>(req.conductors, 0.0)};
  exc.target[req.conductors / 2] = 1.0;
  const auto noise_at = [&](double h, double k, double tau) {
    return exact_coupled_victim_noise(bus, h, tech.rep.scaled(k), exc,
                                      /*victim=*/0, tau);
  };
  CoupledNoiseResult noise = noise_at(un.h, un.k, un.tau);

  const double vmax = req.constraints.noise_vmax;
  if (vmax > 0.0 && noise.peak > vmax) {
    // The budget binds: walk the constraint boundary in the repeater size.
    // Upsized repeaters hold the quiet victim at lower driver impedance, so
    // along the per-k delay-optimal segmentation h_opt(k) the victim peak
    // noise falls strictly with k while delay/length rises for k above the
    // unconstrained optimum.  The constrained optimum is the smallest
    // feasible size: the Brent root of peak_noise(h_opt(k), k) = vmax,
    // bracketed by doubling k upward from the unconstrained optimum.
    RLC_TRACE_SPAN("optimize_noise_constrained");
    DelayOptions dopts;
    dopts.f = req.optim.f;
    struct BoundaryPoint {
      double h, k, tau;
      CoupledNoiseResult noise;
    };
    // on_boundary is a pure function of k, and the search repeats k: Brent
    // re-probes its bracket ends, which the doubling already probed, and
    // the answer re-reads Brent's root.  Each probe is kept, and a repeat
    // of exactly the same k returns the kept point.
    std::vector<BoundaryPoint> probed;
    const auto on_boundary = [&](double k) -> BoundaryPoint {
      for (const BoundaryPoint& p : probed) {
        if (p.k == k) return p;
      }
      const auto hopt = rlc::math::brent_minimize(
          [&](double h) {
            return delay_per_length(tech.rep, eff, h, k, req.optim.f);
          },
          0.1 * un.h, 10.0 * un.h, 1e-4 * un.h);
      const double h = hopt.converged ? hopt.x : un.h;
      const DelayResult d = segment_delay(tech.rep, eff, h, k, dopts);
      if (!d.converged) {
        throw std::runtime_error(
            "noise-constrained optimizer: delay solve failed");
      }
      probed.push_back({h, k, d.tau, noise_at(h, k, d.tau)});
      return probed.back();
    };
    const auto unmet = [&](double best) {
      return rlc::Status::no_convergence(
          "noise-constrained optimizer could not meet peak_noise <= " +
          fmt(vmax) + " V (best " + fmt(best) + " V)");
    };

    // Bracket by doubling until the budget is met or the upsizing range is
    // exhausted (then the budget is unreachable by sizing alone).
    const double k_cap = 64.0 * un.k;
    BoundaryPoint top = on_boundary(2.0 * un.k);
    while (top.noise.peak > vmax && top.k < k_cap) {
      top = on_boundary(2.0 * top.k);
    }
    if (top.noise.peak > vmax) return unmet(top.noise.peak);
    const auto kr = rlc::math::brent_root(
        [&](double k) { return on_boundary(k).noise.peak - vmax; },
        0.5 * top.k, top.k, 1e-4 * un.k);
    if (!kr.converged) return unmet(noise.peak);

    BoundaryPoint best = on_boundary(kr.x);
    // The Brent root can land a hair on the infeasible side; nudge up to
    // the feasible side of the bracket if so.
    if (best.noise.peak > vmax) {
      const BoundaryPoint up =
          on_boundary(std::min(kr.x * (1.0 + 1e-3) + 1e-4 * un.k, top.k));
      if (up.noise.peak <= vmax) best = up;
    }
    if (!(best.noise.peak <= vmax * (1.0 + 1e-6))) {
      return unmet(best.noise.peak);
    }
    resp.sizing.h = best.h;
    resp.sizing.k = best.k;
    resp.sizing.tau = best.tau;
    resp.sizing.delay_per_length = best.tau / best.h;
    resp.noise_constraint_active = true;
    noise = best.noise;
  }

  resp.peak_noise = noise.peak;
  resp.noise_width = noise.width;
  resp.has_noise = true;
  return resp;
}

/// ---- objective kPower ----------------------------------------------------

rlc::StatusOr<OptimizeResponse> solve_power(const Technology& tech,
                                            const OptimizeRequest& req) {
  RLC_TRACE_SPAN("optimize_power_constrained");
  const PowerModel model = PowerModel::from_technology(tech, req.power);
  const tline::LineParams line = tech.line(req.l);

  // Delay-optimal reference: T_opt anchors the slack constraint and
  // (h_opt, k_opt) anchors the domain.
  const OptimResult un = optimize_rlc(tech, req.l, req.optim);
  if (!un.converged) {
    return rlc::Status::no_convergence(
        "power objective: delay-optimal reference solve did not converge");
  }

  OptimizeResponse resp;
  resp.objective = Objective::kPower;
  resp.has_power = true;
  resp.delay_ref = un.delay_per_length;
  resp.power_ref = model.per_length(un.h, un.k).total();

  const double eps = req.constraints.delay_slack_eps;
  if (eps == 0.0) {
    // Zero slack admits exactly the delay optimum: return it bitwise.
    resp.sizing = un;
    resp.power = model.per_length(un.h, un.k);
    resp.delay_constraint_active = true;
    return resp;
  }

  const std::vector<double> hg = log_grid(un.h, req.domain.h_min_scale,
                                          req.domain.h_max_scale,
                                          req.domain.h_points);
  const std::vector<double> kg = log_grid(un.k, req.domain.k_min_scale,
                                          req.domain.k_max_scale,
                                          req.domain.k_points);
  const double h_lo = hg.front(), h_hi = hg.back();
  const double bound = (1.0 + eps) * un.delay_per_length;  // inf for eps=inf

  const auto dpl = [&](double h, double k) {
    return dpl_at(tech.rep, line, h, k, req.optim.f);
  };

  const auto finish = [&](double h, double k) -> rlc::StatusOr<OptimizeResponse> {
    DelayOptions dopts;
    dopts.f = req.optim.f;
    const DelayResult dr = segment_delay(tech.rep, line, h, k, dopts);
    if (!dr.converged) {
      return rlc::Status::no_convergence(
          "power objective: delay solve failed at the constrained optimum");
    }
    resp.sizing.h = h;
    resp.sizing.k = k;
    resp.sizing.tau = dr.tau;
    resp.sizing.delay_per_length = dr.tau / h;
    resp.sizing.newton_iterations = un.newton_iterations;
    resp.sizing.method = un.method;
    resp.sizing.converged = true;
    resp.power = model.per_length(h, k);
    // Active iff the answer sits on the slack boundary (to boundary-root
    // resolution) rather than in the domain interior or on its edge.
    resp.delay_constraint_active =
        std::isfinite(bound) &&
        resp.sizing.delay_per_length >= bound * (1.0 - 1e-4);
    return resp;
  };

  // Power per length is monotone in the repeater area per length k / h, so
  // the domain's unconstrained minimum-power point is the (h_max, k_min)
  // corner — computed with the SAME grid arithmetic as the Pareto/brute-
  // force sweeps, so an unconstrained solve matches the minimum-power grid
  // point bitwise.
  if (const std::optional<double> d0 = dpl(h_hi, kg.front());
      d0 && *d0 <= bound) {
    return finish(h_hi, kg.front());
  }

  // Inner boundary solve: the largest feasible h for a given k.  The delay
  // per length is U-shaped in h, so when the domain's upper edge violates
  // the bound the feasible set (if any) ends at the upper-branch root of
  // delay(h, k) = bound.
  const auto h_star = [&](double k) -> std::optional<double> {
    if (const std::optional<double> top = dpl(h_hi, k); top && *top <= bound) {
      return h_hi;
    }
    const auto hm = rlc::math::brent_minimize(
        [&](double h) {
          const std::optional<double> v = dpl(h, k);
          return v ? *v : kInf;
        },
        h_lo, h_hi, 1e-5 * un.h);
    if (!hm.converged || !std::isfinite(hm.fx) || hm.fx > bound) {
      return std::nullopt;  // k is infeasible inside the domain
    }
    const auto root = rlc::math::brent_root(
        [&](double h) {
          const std::optional<double> v = dpl(h, k);
          return (v ? *v : 2.0 * bound) - bound;
        },
        hm.x, h_hi, 1e-7 * un.h);
    if (!root.converged) return hm.x;
    // Keep to the feasible side of the root.
    double h = std::min(root.x, h_hi);
    if (const std::optional<double> v = dpl(h, k); !v || *v > bound) {
      h = std::max(hm.x, h * (1.0 - 1e-6));
      if (const std::optional<double> v2 = dpl(h, k); !v2 || *v2 > bound) {
        return hm.x;
      }
    }
    return h;
  };

  // Outer minimization of the boundary power over k: deterministic coarse
  // scan over the k grid (shared with the sweeps), then a Brent refinement
  // between the feasible neighbours of the best grid point.
  std::vector<std::optional<double>> h_at(kg.size());
  std::size_t best_j = kg.size();
  double best_p = kInf, best_h = 0.0, best_k = 0.0;
  for (std::size_t j = 0; j < kg.size(); ++j) {
    h_at[j] = h_star(kg[j]);
    if (!h_at[j]) continue;
    const double p = model.per_length(*h_at[j], kg[j]).total();
    if (p < best_p) {
      best_p = p;
      best_j = j;
      best_h = *h_at[j];
      best_k = kg[j];
    }
  }
  if (best_j == kg.size()) {
    return rlc::Status::no_convergence(
        "power objective: no feasible (h, k) in the domain meets delay <= " +
        fmt(bound) + " s/m");
  }
  const double k_ref_lo =
      best_j > 0 && h_at[best_j - 1] ? kg[best_j - 1] : kg[best_j];
  const double k_ref_hi = best_j + 1 < kg.size() && h_at[best_j + 1]
                              ? kg[best_j + 1]
                              : kg[best_j];
  if (k_ref_lo < k_ref_hi) {
    const auto boundary_power = [&](double k) -> double {
      const std::optional<double> h = h_star(k);
      return h ? model.per_length(*h, k).total() : kInf;
    };
    const auto km = rlc::math::brent_minimize(boundary_power, k_ref_lo,
                                              k_ref_hi, 1e-6 * un.k);
    if (km.converged && std::isfinite(km.fx) && km.fx < best_p) {
      if (const std::optional<double> h = h_star(km.x)) {
        best_h = *h;
        best_k = km.x;
      }
    }
  }
  return finish(best_h, best_k);
}

}  // namespace

rlc::StatusOr<OptimizeResponse> optimize(const Technology& tech,
                                         const OptimizeRequest& req) {
  if (rlc::Status st = validate_optimize_request(req); !st.is_ok()) return st;
  return rlc::at_boundary<OptimizeResponse>(
      [&]() -> rlc::StatusOr<OptimizeResponse> {
        return req.objective == Objective::kPower ? solve_power(tech, req)
                                                  : solve_delay(tech, req);
      });
}

rlc::StatusOr<std::vector<ParetoPoint>> pareto_front(const Technology& tech,
                                                     const OptimizeRequest& req,
                                                     exec::ThreadPool* pool) {
  if (rlc::Status st = validate_optimize_request(req); !st.is_ok()) return st;
  using Out = std::vector<ParetoPoint>;
  return rlc::at_boundary<Out>([&]() -> rlc::StatusOr<Out> {
    RLC_TRACE_SPAN("pareto_front");
    const PowerModel model = PowerModel::from_technology(tech, req.power);
    const tline::LineParams line = tech.line(req.l);
    const OptimResult un = optimize_rlc(tech, req.l, req.optim);
    if (!un.converged) {
      return rlc::Status::no_convergence(
          "pareto_front: delay-optimal reference solve did not converge");
    }
    const std::vector<double> hg = log_grid(un.h, req.domain.h_min_scale,
                                            req.domain.h_max_scale,
                                            req.domain.h_points);
    const std::vector<double> kg = log_grid(un.k, req.domain.k_min_scale,
                                            req.domain.k_max_scale,
                                            req.domain.k_points);

    // One task per k row; each grid point is solved independently and rows
    // are reduced in index order, so the front is bit-identical for any
    // thread count.
    exec::ThreadPool& p = pool ? *pool : exec::default_pool();
    const std::vector<std::vector<ParetoPoint>> rows =
        exec::parallel_map(p, kg, [&](const double k) {
          std::vector<ParetoPoint> row;
          row.reserve(hg.size());
          for (const double h : hg) {
            const std::optional<double> d =
                dpl_at(tech.rep, line, h, k, req.optim.f);
            if (!d) continue;  // unconverged grid point: skip, don't fake
            ParetoPoint pt;
            pt.h = h;
            pt.k = k;
            pt.delay_per_length = *d;
            pt.power = model.per_length(h, k);
            pt.power_per_length = pt.power.total();
            row.push_back(pt);
          }
          return row;
        });

    Out all;
    all.reserve(hg.size() * kg.size());
    for (const auto& row : rows) all.insert(all.end(), row.begin(), row.end());

    // Non-dominance filter: sort by (delay, power) and keep the strictly
    // improving power envelope.  Ties break on (h, k) so the order is a
    // total one and the front deterministic.
    std::sort(all.begin(), all.end(), [](const ParetoPoint& a,
                                         const ParetoPoint& b) {
      if (a.delay_per_length != b.delay_per_length) {
        return a.delay_per_length < b.delay_per_length;
      }
      if (a.power_per_length != b.power_per_length) {
        return a.power_per_length < b.power_per_length;
      }
      if (a.h != b.h) return a.h < b.h;
      return a.k < b.k;
    });
    Out front;
    double best_power = kInf;
    for (const ParetoPoint& pt : all) {
      if (pt.power_per_length < best_power) {
        front.push_back(pt);
        best_power = pt.power_per_length;
      }
    }
    return front;
  });
}

}  // namespace rlc::core
