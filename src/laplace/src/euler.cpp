#include "rlc/laplace/euler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "rlc/base/cancel.hpp"
#include "rlc/math/constants.hpp"
#include "rlc/obs/metrics.hpp"

namespace rlc::laplace {

namespace {

void validate(double t, const EulerOptions& o) {
  if (!(t > 0.0)) throw std::invalid_argument("euler_invert: t must be > 0");
  if (o.burn_in < 1) {
    throw std::invalid_argument("euler_invert: burn_in must be >= 1");
  }
  if (o.terms < 0) {
    throw std::invalid_argument("euler_invert: terms must be >= 0");
  }
  if (!(o.decay > 0.0)) {
    throw std::invalid_argument("euler_invert: decay must be > 0");
  }
}

void count_invert(std::size_t times, std::size_t nodes) {
  auto& reg = obs::Registry::global();
  static const int kCalls = reg.counter("euler.invert.calls");
  static const int kEvals = reg.counter("euler.invert.f_evals");
  reg.add(kCalls, static_cast<std::int64_t>(times));
  reg.add(kEvals, static_cast<std::int64_t>(times * nodes));
}

/// Time points evaluated and reduced per span call.  Eight times make a
/// multiple of four nodes whatever the node count, so every call after the
/// first starts a SIMD group of four where the single whole-waveform call
/// did: cexp_pd computes full groups with its vector kernels and only a
/// call's last (n mod 4) nodes with libm, so each node keeps its bits.  At
/// the default 47 nodes a chunk is 376 nodes, 12 KB of scratch that stays
/// put between calls where a 400-time waveform's 600 KB was freed to the
/// system and faulted back in.
constexpr std::size_t kChunkTimes = 8;

/// Euler-accelerated reduction of the alternating series for ONE time
/// point, given the F samples at its nodes s_j = (decay/2 + i pi j)/t laid
/// out as SoA lanes [f_re[j], f_im[j]] for j in [0, nodes).  exp(s_j t) =
/// e^{decay/2} (-1)^j, so only the real parts and the sign pattern enter;
/// `scale` is e^{decay/2}.
double reduce(const double* f_re, double t, double scale,
              const EulerOptions& o) {
  const int n = o.burn_in;
  const int m = o.terms;
  // Partial sums s_n .. s_{n+m} of  F0/2 + sum_j (-1)^j Re F_j.
  double acc = 0.5 * f_re[0];
  double tail_acc = 0.0;  // binomial-weighted sum of the tail partials
  double bin = 1.0;       // C(m, j - n), advanced once per tail index
  for (int j = 1; j <= n + m; ++j) {
    acc += ((j & 1) != 0 ? -1.0 : 1.0) * f_re[j];
    if (j >= n) {
      tail_acc += bin * acc;
      const int i = j - n;
      bin = bin * static_cast<double>(m - i) / static_cast<double>(i + 1);
    }
  }
  return scale / t * std::ldexp(tail_acc, -m);
}

}  // namespace

int euler_nodes(const EulerOptions& opts) {
  return opts.burn_in + opts.terms + 1;
}

std::vector<double> euler_invert(BatchLaplaceFnRef F,
                                 const std::vector<double>& times,
                                 const EulerOptions& opts) {
  for (double t : times) validate(t, opts);
  const auto nodes = static_cast<std::size_t>(euler_nodes(opts));
  count_invert(times.size(), nodes);
  rlc::checkpoint();  // one stop point per waveform, not per node
  const double scale = std::exp(0.5 * opts.decay);
  const std::size_t chunk = std::min(times.size(), kChunkTimes) * nodes;
  std::vector<double> scratch(4 * chunk);
  double* sr = scratch.data();
  double* si = sr + chunk;
  double* fr = si + chunk;
  double* fi = fr + chunk;
  std::vector<double> out(times.size());
  for (std::size_t first = 0; first < times.size(); first += kChunkTimes) {
    const std::size_t count = std::min(kChunkTimes, times.size() - first);
    for (std::size_t i = 0; i < count; ++i) {
      const double a = 0.5 * opts.decay / times[first + i];
      const double w = rlc::math::kPi / times[first + i];
      for (std::size_t j = 0; j < nodes; ++j) {
        sr[i * nodes + j] = a;
        si[i * nodes + j] = w * static_cast<double>(j);
      }
    }
    // One span call covering every node of the chunk's time points.
    F(sr, si, fr, fi, count * nodes);
    for (std::size_t i = 0; i < count; ++i) {
      out[first + i] = reduce(fr + i * nodes, times[first + i], scale, opts);
    }
  }
  return out;
}

double euler_invert(BatchLaplaceFnRef F, double t, const EulerOptions& opts) {
  return euler_invert(F, std::vector<double>{t}, opts)[0];
}

}  // namespace rlc::laplace
