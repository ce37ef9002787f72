#include "rlc/core/exact_delay.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "rlc/core/delay.hpp"
#include "rlc/laplace/euler.hpp"
#include "rlc/laplace/talbot.hpp"
#include "rlc/math/brent.hpp"
#include "rlc/obs/metrics.hpp"
#include "rlc/obs/trace.hpp"
#include "rlc/tline/batch_evaluator.hpp"

namespace rlc::core {

namespace {

/// Search window of the threshold solve, as multiples of tau_scale (the
/// legacy path used the same bounds).
constexpr double kSearchLo = 0.02;
constexpr double kSearchHi = 8.0;

/// Window ratio: one shared contour serves all times in [t_max/4, t_max].
/// Accuracy at the window foot behaves like a per-t inversion with
/// ~window_points/4 nodes, so the ratio stays modest.
constexpr double kWindowRatio = 4.0;
/// Geometric grid intervals per window in the threshold search.
constexpr int kGridPointsPerWindow = 10;

void validate_threshold_args(double tau_scale, double f) {
  if (!(f > 0.0 && f < 1.0)) {
    throw std::domain_error("exact_threshold_delay: f must be in (0, 1)");
  }
  if (!(tau_scale > 0.0)) {
    throw std::domain_error("exact_threshold_delay: tau_scale must be > 0");
  }
}

void validate_options(const ExactOptions& o) {
  if (o.talbot_points < 4 || o.window_points < 4) {
    throw std::domain_error("ExactOptions: contour sizes must be >= 4");
  }
}

/// Span adapter from the SoA batch evaluator onto the laplace inverters'
/// BatchLaplaceFnRef signature (two words, no allocation).
struct BatchStep {
  const tline::BatchTransferEvaluator* ev;
  void operator()(const double* s_re, const double* s_im, double* f_re,
                  double* f_im, std::size_t n) const {
    ev->step(s_re, s_im, f_re, f_im, n);
  }
};

/// The fast exact-waveform engine: a SoA BatchTransferEvaluator fills every
/// Talbot contour in one vectorized pass, for the shared windows and the
/// per-t inversions alike.
///
/// The engine is channelized for coupled lines: K >= 1 modal channels, each
/// a scalar (line, h, dl) evaluator with a recomposition coefficient,
/// combined per probe as
///   v(t) = offset + sum_k coef_k v_k(t).
/// A single conductor is one channel with coefficient 1 and offset 0; since
/// 0.0 + 1.0 * v is v in IEEE arithmetic (only -0.0 turns +0.0), its
/// thresholds and samples keep the bits of the bare scalar inversion.
class WaveformEngine {
 public:
  /// One channel per contributing mode: `modes[k]` runs with coefficient
  /// `coefs[k]`; `offset` is the conductor's pre-switch level.
  WaveformEngine(const std::vector<tline::LineParams>& modes,
                 const std::vector<double>& coefs, double offset, double h,
                 const tline::DriverLoad& dl, const ExactOptions& opts)
      : opts_(opts), offset_(offset) {
    channels_.reserve(modes.size());
    for (std::size_t k = 0; k < modes.size(); ++k) {
      if (coefs[k] == 0.0) continue;  // silent mode: contributes nothing
      channels_.push_back(std::make_unique<Channel>(modes[k], h, dl, coefs[k]));
    }
  }

  /// One composite shared-contour window: a TalbotContour per channel, all
  /// anchored at the same t_max.
  class Window {
   public:
    Window(WaveformEngine& e, double t_max) : e_(&e) {
      contours_.reserve(e.channels_.size());
      for (const auto& ch : e.channels_) {
        contours_.emplace_back(rlc::laplace::BatchLaplaceFnRef(ch->bstep),
                               t_max, e.opts_.window_points);
      }
    }
    double eval(double t) const {
      double acc = e_->offset_;
      for (std::size_t k = 0; k < contours_.size(); ++k)
        acc += e_->channels_[k]->coef * contours_[k].eval(t);
      return acc;
    }
    double t_max() const noexcept {
      return contours_.empty() ? 0.0 : contours_[0].t_max();
    }

   private:
    WaveformEngine* e_;
    std::vector<rlc::laplace::TalbotContour> contours_;
  };

  /// First f-crossing: lazy top-down window descent + Brent polish.  Each
  /// window above the crossing costs one contour build plus ONE foot probe
  /// (is v still >= f at the window foot?); only the crossing window is
  /// grid-scanned, bottom-up with early exit at the first bracket.
  std::optional<double> threshold(double tau_scale, double f) {
    const double lo = kSearchLo * tau_scale;
    const double hi = kSearchHi * tau_scale;
    double t_hi = hi;
    bool top_window = true;
    while (true) {
      const Window contour(*this, t_hi);
      if (top_window) {
        // !(>= f) instead of (< f): a non-finite eval (kernel overflow at
        // extreme window scales) must mean "cannot certify a crossing",
        // not fall through into the descent on NaN comparisons.
        if (!(contour.eval(t_hi) >= f)) return std::nullopt;  // not settled
        top_window = false;
      }
      const double t_lo_w = std::max(lo, t_hi / kWindowRatio);
      const double gstep = std::pow(t_hi / t_lo_w, 1.0 / kGridPointsPerWindow);
      const double v_foot = contour.eval(t_lo_w);
      if (v_foot >= f) {
        // Already above threshold at the window foot: the first crossing
        // (if any) lies further down.
        if (t_lo_w <= lo * (1.0 + 1e-12)) return std::nullopt;  // v(lo) >= f
        t_hi = t_lo_w;
        continue;
      }
      // The first crossing is inside (or at the top edge of) this window:
      // walk the geometric grid upward from the foot and stop at the first
      // bracket, which preserves first-crossing semantics at grid
      // resolution.
      double ta = t_lo_w, va = v_foot;
      for (int j = 1; j <= kGridPointsPerWindow; ++j) {
        const double tb =
            (j == kGridPointsPerWindow) ? t_hi : t_lo_w * std::pow(gstep, j);
        const double vb = contour.eval(tb);
        if (vb >= f) {
          return polish(&contour, va - f, vb - f, ta, tb, gstep, lo, hi,
                        tau_scale, f);
        }
        ta = tb;
        va = vb;
      }
      // Below f all the way up to t_hi, yet the window above starts >= f:
      // the crossing straddles the window boundary.
      return polish(nullptr, 0.0, 0.0, t_hi, std::min(hi, t_hi * gstep),
                    gstep, lo, hi, tau_scale, f);
    }
  }

  /// Legacy per-t bisection (the pre-engine implementation), kept as the
  /// reference and as the rescue path when the engine loses its bracket.
  /// Every probe is one per-t inversion of the recomposed waveform.
  std::optional<double> legacy_threshold(double tau_scale, double f) {
    double lo = kSearchLo * tau_scale, hi = kSearchHi * tau_scale;
    // The hi endpoint is negated so a non-finite value (kernel overflow at
    // extreme scales) reports "no bracket" instead of bisecting on NaN.
    // A non-finite v(lo) is tolerated: the deep foot overflows first while
    // being physically ~0, i.e. safely below any threshold.
    if (invert_per_t(lo) > f || !(invert_per_t(hi) >= f)) return std::nullopt;
    for (int i = 0; i < 60; ++i) {
      const double mid = 0.5 * (lo + hi);
      // Adjacent doubles: further probes can at most collapse the bracket
      // onto mid, so the returned midpoint is already final.
      if (mid == lo || mid == hi) break;
      (invert_per_t(mid) < f ? lo : hi) = mid;
    }
    return 0.5 * (lo + hi);
  }

  /// Composite waveform via the Euler (Abate-Whitt) inversion: one span
  /// evaluation per channel covering every node of every time point.  This
  /// is the accuracy path of the victim-noise query: ringing tails of
  /// underdamped modal lines sit outside the fixed-Talbot contour's comfort
  /// zone, while the vertical Euler contour keeps ~1e-7 absolute error
  /// there (see laplace/euler.hpp).
  std::vector<double> sample_euler(const std::vector<double>& ts) {
    std::vector<double> out(ts.size(), offset_);
    for (const auto& ch : channels_) {
      const std::vector<double> v = rlc::laplace::euler_invert(
          rlc::laplace::BatchLaplaceFnRef(ch->bstep), ts);
      for (std::size_t i = 0; i < ts.size(); ++i) out[i] += ch->coef * v[i];
    }
    return out;
  }

  double eval_euler(double t) {
    double acc = offset_;
    for (const auto& ch : channels_) {
      acc += ch->coef * rlc::laplace::euler_invert(
                            rlc::laplace::BatchLaplaceFnRef(ch->bstep), t);
    }
    return acc;
  }

  /// Peak deviation of the composite waveform from its pre-switch level
  /// (the victim-noise query): geometric grid scan over the search window,
  /// Brent refinement of the peak, and a half-magnitude pulse width from
  /// the scan samples.  Runs on the Euler path — noise peaks live in the
  /// ringing region where shared Talbot windows are least accurate.
  CoupledNoiseResult noise(double tau_scale) {
    const double lo = kSearchLo * tau_scale;
    const double hi = kSearchHi * tau_scale;
    const int n = 400;
    std::vector<double> ts(n);
    const double g = std::pow(hi / lo, 1.0 / (n - 1));
    for (int i = 0; i < n; ++i) ts[i] = lo * std::pow(g, i);
    ts.back() = hi;
    const std::vector<double> v = sample_euler(ts);
    std::vector<double> dev(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) dev[i] = v[i] - offset_;
    std::size_t k = 0;
    for (std::size_t i = 1; i < dev.size(); ++i)
      if (std::abs(dev[i]) > std::abs(dev[k])) k = i;

    CoupledNoiseResult out;
    out.peak = std::abs(dev[k]);
    out.t_peak = ts[k];
    if (out.peak == 0.0) return out;

    const double sign = dev[k] >= 0.0 ? 1.0 : -1.0;
    if (k > 0 && k + 1 < ts.size()) {
      const auto r = rlc::math::brent_minimize(
          [&](double t) { return -sign * (eval_euler(t) - offset_); },
          ts[k - 1], ts[k + 1], 1e-6 * tau_scale);
      if (r.converged && -r.fx >= out.peak) {
        out.t_peak = r.x;
        out.peak = -r.fx;
      }
    }

    // Width: time spent with sign*dev >= peak/2, interpolated on the scan.
    const double half = 0.5 * out.peak;
    double t_left = lo, t_right = hi;
    for (std::size_t i = k; i-- > 0;) {
      if (sign * dev[i] < half) {
        const double num = half - sign * dev[i];
        const double den = sign * dev[i + 1] - sign * dev[i];
        t_left = ts[i] + (ts[i + 1] - ts[i]) * (den > 0.0 ? num / den : 0.0);
        break;
      }
    }
    for (std::size_t i = k + 1; i < dev.size(); ++i) {
      if (sign * dev[i] < half) {
        const double num = sign * dev[i - 1] - half;
        const double den = sign * dev[i - 1] - sign * dev[i];
        t_right =
            ts[i - 1] + (ts[i] - ts[i - 1]) * (den > 0.0 ? num / den : 0.0);
        break;
      }
    }
    out.width = std::max(0.0, t_right - t_left);
    return out;
  }

  /// Adds this run's Eq. (1) evaluations and rescues to `s`.
  void add_stats(ExactStats& s) const {
    for (const auto& ch : channels_) {
      s.transfer_evals += static_cast<std::int64_t>(ch->batch.evaluations());
    }
    s.legacy_fallbacks += legacy_fallbacks_;
  }

 private:
  /// Polish the crossing.  A bracket from the grid scan sits inside its
  /// window ([t_max/4, t_max]), where the window contour is accurate enough
  /// to seed the per-t refinement — so the root is brent-solved on it with
  /// zero extra transfer evaluations and then converged onto the per-t
  /// integrand.  Boundary straddles (no window) get a fresh contour
  /// anchored at the bracket top, where the bracket is re-verified and
  /// widened by grid steps if the coarser window misplaced it.
  std::optional<double> polish(const Window* window, double ga_win,
                               double gb_win, double a, double b, double gstep,
                               double lo, double hi, double tau_scale,
                               double f) {
    if (window != nullptr && ga_win <= 0.0 && gb_win >= 0.0) {
      const auto r = rlc::math::brent_root(
          [&](double t) { return window->eval(t) - f; }, a, b,
          1e-4 * tau_scale);
      if (r.converged) return refine_per_t(*window, r.x, lo, hi, tau_scale, f);
      // fall through to the fresh-contour attempts
    }
    for (int attempt = 0; attempt < 8; ++attempt) {
      const Window c(*this, b);
      const double ga = c.eval(a) - f;
      const double gb = c.eval(b) - f;
      if (ga <= 0.0 && gb >= 0.0) {
        const auto r = rlc::math::brent_root(
            [&](double t) { return c.eval(t) - f; }, a, b,
            1e-4 * tau_scale);
        if (r.converged) return refine_per_t(c, r.x, lo, hi, tau_scale, f);
        break;
      }
      const double a_prev = a, b_prev = b;
      if (ga > 0.0) a = std::max(lo, a / gstep);
      if (gb < 0.0) b = std::min(hi, b * gstep);
      if (a == a_prev && b == b_prev) break;  // pinned at the search edges
    }
    ++legacy_fallbacks_;
    return legacy_threshold(tau_scale, f);
  }

  /// Converge the contour root onto the per-t integrand the legacy path
  /// bisects.  On ringing (inductive) responses the shared-contour value
  /// near the root can disagree with the per-t inversion by ~1e-3, so the
  /// contour root alone would eat the whole accuracy budget; a few
  /// fixed-slope Newton steps on talbot_invert itself close that gap to
  /// root-finder precision.  The slope comes from the cached contour
  /// (relative accuracy ~1e-3 there is ample for Newton), so each step
  /// costs exactly one per-t inversion.
  double refine_per_t(const Window& c, double t0, double lo, double hi,
                      double tau_scale, double f) {
    const double dt = 1e-3 * t0;
    const double t_up = std::min(t0 + dt, c.t_max());
    const double t_dn = t0 - dt;
    const double slope = (c.eval(t_up) - c.eval(t_dn)) / (t_up - t_dn);
    if (!std::isfinite(slope) || !(slope > 0.0)) return t0;
    double t = t0, t_best = t0;
    double g_best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 3; ++i) {
      const double g = invert_per_t(t) - f;
      if (!(std::abs(g) < g_best)) break;  // stalled: keep the best point
      g_best = std::abs(g);
      t_best = t;
      const double step = g / slope;
      t = std::clamp(t - step, lo, hi);
      // Each step shrinks the error ~1e3-fold (the slope is ~1e-3
      // accurate), so a sub-1e-6 step leaves ~1e-9 relative error.
      if (std::abs(step) <= 1e-6 * tau_scale) {
        t_best = t;
        break;
      }
    }
    return t_best;
  }

  /// One modal channel: the scalar evaluator plus its recomposition
  /// coefficient.  Held by unique_ptr — the evaluator flushes metrics at
  /// destruction, so it must never be copied.
  struct Channel {
    Channel(const tline::LineParams& line, double h,
            const tline::DriverLoad& dl, double coef_in)
        : batch(line, h, dl), coef(coef_in) {}
    rlc::tline::BatchTransferEvaluator batch;
    BatchStep bstep{&batch};
    double coef;
  };

  /// Composite per-t inversion (the integrand the legacy bisection probes
  /// and refine_per_t converges onto).
  double invert_per_t(double t) const {
    double acc = offset_;
    for (const auto& ch : channels_)
      acc += ch->coef * rlc::laplace::talbot_invert(
                            rlc::laplace::BatchLaplaceFnRef(ch->bstep), t,
                            opts_.talbot_points);
    return acc;
  }

  std::vector<std::unique_ptr<Channel>> channels_;
  ExactOptions opts_;
  double offset_ = 0.0;
  std::int64_t legacy_fallbacks_ = 0;
};

}  // namespace

std::vector<double> exact_step_response(const tline::LineParams& line,
                                        double h, const tline::DriverLoad& dl,
                                        const std::vector<double>& times,
                                        int talbot_points) {
  line.validate();
  const auto step = [&](std::complex<double> s) {
    return rlc::tline::exact_transfer_dc_safe(line, h, dl, s) / s;
  };
  return rlc::laplace::talbot_invert(step, times, talbot_points);
}

namespace {

/// Shared setup of every coupled query: validate the excitation against the
/// bus, diagonalize, and project the switch vector onto the modes.
struct CoupledSetup {
  tline::ModalDecomposition modal;
  std::vector<double> dm;  ///< modal weights of (target - initial)
};

CoupledSetup coupled_setup(const tline::CoupledLine& bus,
                           const CoupledExcitation& exc) {
  const std::size_t n = bus.conductors();
  if (exc.initial.size() != n || exc.target.size() != n) {
    throw std::invalid_argument(
        "CoupledExcitation: initial/target must have one entry per "
        "conductor");
  }
  CoupledSetup s;
  s.modal = tline::modal_decomposition(bus);
  std::vector<double> du(n);
  for (std::size_t i = 0; i < n; ++i) du[i] = exc.target[i] - exc.initial[i];
  s.dm = s.modal.modal_weights(du);
  return s;
}

/// Composite engine for one observed conductor: channel coefficients
/// coef_j = W(conductor, j) * dm_j, offset = the conductor's initial level.
WaveformEngine conductor_engine(const CoupledSetup& su,
                                const CoupledExcitation& exc,
                                std::size_t conductor, double h,
                                const tline::DriverLoad& dl,
                                const ExactOptions& opts) {
  std::vector<double> coefs(su.modal.size());
  for (std::size_t j = 0; j < su.modal.size(); ++j)
    coefs[j] = su.modal.vectors(conductor, j) * su.dm[j];
  return WaveformEngine(su.modal.modes, coefs, exc.initial[conductor], h, dl,
                        opts);
}

}  // namespace

std::vector<std::vector<double>> exact_coupled_step_response(
    const tline::CoupledLine& bus, double h, const tline::DriverLoad& dl,
    const CoupledExcitation& exc, const std::vector<double>& times) {
  RLC_TRACE_SPAN("exact_coupled_sample");
  const CoupledSetup su = coupled_setup(bus, exc);
  const std::size_t n = bus.conductors();
  const std::size_t n_modes = su.modal.size();

  // One Euler inversion per EXCITED mode — a single span evaluation over
  // every node of every time point feeds the SoA batch kernel — and the
  // modal responses are then recomposed into all n conductor waveforms.
  // (Shared Talbot windows are NOT used here: underdamped modal ringing
  // tails need the vertical-contour accuracy; see laplace/euler.hpp.)
  std::vector<std::vector<double>> modal_v(n_modes);
  for (std::size_t j = 0; j < n_modes; ++j) {
    if (su.dm[j] == 0.0) continue;
    tline::BatchTransferEvaluator batch(su.modal.modes[j], h, dl);
    const BatchStep bstep{&batch};
    modal_v[j] = rlc::laplace::euler_invert(
        rlc::laplace::BatchLaplaceFnRef(bstep), times);
  }
  std::vector<std::vector<double>> out(n,
                                       std::vector<double>(times.size()));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t ti = 0; ti < times.size(); ++ti) {
      double acc = exc.initial[i];
      for (std::size_t j = 0; j < n_modes; ++j) {
        if (modal_v[j].empty()) continue;
        acc += su.modal.vectors(i, j) * su.dm[j] * modal_v[j][ti];
      }
      out[i][ti] = acc;
    }
  }
  return out;
}

std::optional<double> exact_coupled_threshold_delay(
    const tline::CoupledLine& bus, double h, const tline::DriverLoad& dl,
    const CoupledExcitation& exc, std::size_t conductor, double tau_scale,
    double f, const ExactOptions& opts) {
  if (conductor >= bus.conductors()) {
    throw std::invalid_argument(
        "exact_coupled_threshold_delay: conductor index out of range");
  }
  validate_threshold_args(tau_scale, f);
  validate_options(opts);
  RLC_TRACE_SPAN("exact_coupled_threshold");
  const CoupledSetup su = coupled_setup(bus, exc);
  WaveformEngine engine = conductor_engine(su, exc, conductor, h, dl, opts);
  return opts.legacy_bisection ? engine.legacy_threshold(tau_scale, f)
                               : engine.threshold(tau_scale, f);
}

CoupledNoiseResult exact_coupled_victim_noise(
    const tline::CoupledLine& bus, double h, const tline::DriverLoad& dl,
    const CoupledExcitation& exc, std::size_t victim, double tau_scale) {
  if (victim >= bus.conductors()) {
    throw std::invalid_argument(
        "exact_coupled_victim_noise: conductor index out of range");
  }
  if (!(tau_scale > 0.0)) {
    throw std::domain_error(
        "exact_coupled_victim_noise: tau_scale must be > 0");
  }
  RLC_TRACE_SPAN("exact_coupled_noise");
  const CoupledSetup su = coupled_setup(bus, exc);
  // The noise query runs on the Euler inversion, which reads neither
  // contour size, so the engine takes the default options.
  return conductor_engine(su, exc, victim, h, dl, ExactOptions{})
      .noise(tau_scale);
}

std::optional<double> exact_threshold_delay(const tline::LineParams& line,
                                            double h,
                                            const tline::DriverLoad& dl,
                                            double tau_scale, double f,
                                            const ExactOptions& opts,
                                            ExactStats* stats) {
  line.validate();
  validate_threshold_args(tau_scale, f);
  validate_options(opts);
  RLC_TRACE_SPAN("exact_threshold");
  static const int kCalls =
      obs::Registry::global().counter("exact.threshold.calls");
  obs::Registry::global().add(kCalls);
  WaveformEngine engine({line}, {1.0}, 0.0, h, dl, opts);
  const auto out = opts.legacy_bisection
                       ? engine.legacy_threshold(tau_scale, f)
                       : engine.threshold(tau_scale, f);
  if (stats) engine.add_stats(*stats);
  return out;
}

std::optional<double> exact_threshold_delay(const Technology& tech, double l,
                                            double h, double k,
                                            double tau_scale, double f,
                                            const ExactOptions& opts,
                                            ExactStats* stats) {
  return exact_threshold_delay(tech.line(l), h, tech.rep.scaled(k), tau_scale,
                               f, opts, stats);
}

std::vector<std::optional<double>> exact_sweep(
    const Technology& tech, const std::vector<double>& ls, double h, double k,
    const ExactSweepOptions& opts) {
  const tline::DriverLoad dl = tech.rep.scaled(k);
  auto& pool = opts.pool ? *opts.pool : rlc::exec::default_pool();
  return rlc::exec::parallel_map(pool, ls, [&](double l) {
    const tline::LineParams line = tech.line(l);
    const auto d = segment_delay(tech.rep, line, h, k);
    // Elmore-style scale where the two-pole solve does not converge:
    // driver charging plus distributed wire delay.
    const double tau_scale =
        d.converged && d.tau > 0.0
            ? d.tau
            : dl.rs_eff * (dl.cp_eff + dl.cl_eff + line.c * h) +
                  line.r * h * (0.5 * line.c * h + dl.cl_eff);
    return exact_threshold_delay(line, h, dl, tau_scale, opts.f, opts.exact);
  });
}

}  // namespace rlc::core
