#pragma once

/// \file exact_delay.hpp
/// Reference ("exact") time-domain quantities obtained from the full Eq. (1)
/// transfer function by numerical inverse Laplace (fixed Talbot), with no
/// Pade truncation.  Used to quantify the accuracy of the two-pole model
/// (ablation 1) and as the gold standard in integration tests.
///
/// The engine evaluates Eq. (1) through one tline::BatchTransferEvaluator
/// per (line, h, driver/load), which fills a whole contour in one
/// vectorized span call.  One entry per job:
///   * threshold delay (exact_threshold_delay, its coupled form and
///     exact_sweep): by default shared-contour Talbot windows, descended
///     lazily, with the crossing polished by Brent on the window
///     interpolant and then converged onto the per-t inversion.  ~10-15x
///     fewer transfer evaluations than the legacy path at matching
///     (<= 1e-3 relative, typically ~1e-9) accuracy.  The LEGACY per-t
///     bisection (ExactOptions::legacy_bisection, and the engine's rescue
///     when a window loses its bracket) takes one full Talbot contour per
///     probe and is kept as the accuracy reference;
///   * waveforms: exact_coupled_step_response on the Euler inversion.
///     exact_step_response is the per-t Talbot reference on the
///     independent per-point integrand exact_transfer_dc_safe;
///   * victim noise: exact_coupled_victim_noise, on the Euler inversion.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "rlc/core/technology.hpp"
#include "rlc/exec/thread_pool.hpp"
#include "rlc/tline/coupled_line.hpp"
#include "rlc/tline/transfer.hpp"

namespace rlc::core {

/// Accuracy/effort knobs of the exact-waveform engine.  The window
/// geometry is fixed: each window spans a ratio of 4 (one contour serves
/// all times in [t_max/4, t_max]) and the threshold search brackets on 10
/// geometric grid intervals per window.
struct ExactOptions {
  /// Contour size of the legacy per-t path (also the engine's rescue
  /// bisection when it loses its bracket).
  int talbot_points = 48;
  /// Contour size M of each shared window (and of the root-polish window).
  /// Fixed Talbot saturates double precision around M ~ 25-30, so 48 keeps
  /// ample margin for the reduced effective node count at window feet.
  int window_points = 48;
  /// Route exact_threshold_delay through the legacy per-t bisection.
  bool legacy_bisection = false;
};

/// Instrumentation of exact_threshold_delay: each call adds its own.  The
/// registry counts the rest (talbot.contours, brent.*).
struct ExactStats {
  std::int64_t transfer_evals = 0;  ///< Eq. (1) evaluations
  std::int64_t legacy_fallbacks = 0;  ///< engine runs rescued by bisection
};

/// Normalized exact step response v(t) of the driver-line-load stage at the
/// given times (unit final value).  Legacy path: one contour per time.
std::vector<double> exact_step_response(const tline::LineParams& line,
                                        double h, const tline::DriverLoad& dl,
                                        const std::vector<double>& times,
                                        int talbot_points = 48);

/// First f*100% crossing of the exact step response inside the search
/// window (0.02..8 x tau_scale); pass the two-pole delay as the scale.
/// Returns nullopt if the threshold is not bracketed in the window.
/// Default path: windowed engine + Brent polish; set
/// opts.legacy_bisection for the per-t bisection reference.
std::optional<double> exact_threshold_delay(const tline::LineParams& line,
                                            double h,
                                            const tline::DriverLoad& dl,
                                            double tau_scale, double f = 0.5,
                                            const ExactOptions& opts = {},
                                            ExactStats* stats = nullptr);

/// The same on a technology and repeater size: the line tech.line(l) driven
/// and loaded by tech.rep.scaled(k).
std::optional<double> exact_threshold_delay(const Technology& tech, double l,
                                            double h, double k,
                                            double tau_scale, double f = 0.5,
                                            const ExactOptions& opts = {},
                                            ExactStats* stats = nullptr);

/// Switching pattern of a coupled bus: per-conductor far-end voltages
/// before (initial, the settled pre-switch state) and after (target) the
/// step at t = 0.  Quiet victim: initial = target on the victim conductor;
/// anti-phase aggressor: initial 1 -> target 0 while the victim rises.
struct CoupledExcitation {
  std::vector<double> initial;
  std::vector<double> target;
};

/// Multi-output engine entry point: far-end waveforms of EVERY conductor
/// of the coupled bus at the given times, recomposed from the modal scalar
/// responses.  Each excited mode is inverted with the Euler (Abate-Whitt)
/// method — one SoA span evaluation over every node of every time point —
/// because underdamped modal ringing tails sit outside the fixed-Talbot
/// contour's accuracy envelope (silent modes — zero modal weight — cost
/// nothing).  Result is [conductor][time], in volts of the excitation's
/// unit system.
std::vector<std::vector<double>> exact_coupled_step_response(
    const tline::CoupledLine& bus, double h, const tline::DriverLoad& dl,
    const CoupledExcitation& exc, const std::vector<double>& times);

/// First time conductor `conductor` crosses v = f (absolute level, same
/// units as the excitation) inside the 0.02..8 x tau_scale search window.
/// The composite victim waveform is evaluated through the SAME lazy
/// window-descent + Brent-polish machinery as the scalar path — per-mode
/// shared contours, recomposed per probe.  Honors opts.legacy_bisection.
std::optional<double> exact_coupled_threshold_delay(
    const tline::CoupledLine& bus, double h, const tline::DriverLoad& dl,
    const CoupledExcitation& exc, std::size_t conductor, double tau_scale,
    double f, const ExactOptions& opts = {});

/// Exact victim-noise query: peak deviation of conductor `victim` from its
/// initial level, the time of the peak, and the pulse width (time spent
/// above half the peak magnitude).  Grid scan over the search window plus a
/// Brent refinement of the peak, both on the Euler inversion path (noise
/// peaks live in the ringing region where shared Talbot windows are least
/// accurate).
struct CoupledNoiseResult {
  double peak = 0.0;    ///< max |v(t) - v(0-)| over the search window
  double t_peak = 0.0;  ///< argmax time [s]
  double width = 0.0;   ///< time with |v - v(0-)| >= peak/2 [s]
};

CoupledNoiseResult exact_coupled_victim_noise(
    const tline::CoupledLine& bus, double h, const tline::DriverLoad& dl,
    const CoupledExcitation& exc, std::size_t victim, double tau_scale);

struct ExactSweepOptions {
  ExactOptions exact;
  double f = 0.5;  ///< threshold fraction
  rlc::exec::ThreadPool* pool = nullptr;  ///< null: default_pool()
};

/// Exact threshold delays over an inductance sweep at fixed (h, k), fanned
/// over the thread pool.  Each point's search scale is the two-pole segment
/// delay (with an Elmore-style estimate as fallback where the two-pole
/// solve does not converge).  Results are in input order and BIT-IDENTICAL
/// to the serial loop for any thread count (each point builds its own
/// evaluator; no shared state).
std::vector<std::optional<double>> exact_sweep(
    const Technology& tech, const std::vector<double>& ls, double h, double k,
    const ExactSweepOptions& opts = {});

}  // namespace rlc::core
