#pragma once

/// \file stehfest.hpp
/// Gaver–Stehfest inverse Laplace transform, a test-support reference (no
/// library code calls it).  Only needs F on the real axis, which makes it
/// a useful independent cross-check of the Talbot inversion for smooth
/// (non-oscillatory) responses; it is known to lose accuracy for strongly
/// underdamped responses, which the tests document.

#include <functional>
#include <vector>

namespace rlc::laplace {

/// Invert F (real-axis samples only) at time t > 0 using N terms
/// (N even, typically 12-18; larger N amplifies roundoff).
double stehfest_invert(const std::function<double(double)>& F_real, double t,
                       int N = 14);

/// Invert F on a vector of time points.  The weights are computed once and
/// shared; each time still needs its own N real-axis samples of F (the
/// Stehfest abscissae scale with 1/t).  The tests use it as the
/// independent cross-check of a shared Talbot contour's window.
std::vector<double> stehfest_invert(const std::function<double(double)>& F_real,
                                    const std::vector<double>& times,
                                    int N = 14);

/// Stehfest weights V_k for given even N (exposed for tests).
std::vector<double> stehfest_weights(int N);

}  // namespace rlc::laplace
