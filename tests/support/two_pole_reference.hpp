#pragma once

/// \file two_pole_reference.hpp
/// Test-support references for the Eq. (3) threshold solve (no library
/// code calls them): TwoPole's step response in its complex
/// two-exponential form, and the threshold-delay solve that brackets the
/// first grid crossing by bisecting the whole index range.  The library's
/// real-arithmetic TwoPole::step_point and estimate-started search are
/// pinned to them bit for bit.

#include "rlc/core/delay.hpp"
#include "rlc/core/two_pole.hpp"

namespace rlc::core {

/// TwoPole's choice of the confluent series (relative pole separation at
/// most 1e-7), recomputed from the poles.
bool uses_confluent_series(const TwoPole& sys);

/// v(t) = 1 - (s2 e^{s1 t} - s1 e^{s2 t}) / (s2 - s1) in complex
/// arithmetic (one cexp for a conjugate pair), or the confluent series.
double reference_step_response(const TwoPole& sys, double t);

/// v'(t) = s1 s2 (e^{s2 t} - e^{s1 t}) / (s2 - s1), same forms.
double reference_step_response_derivative(const TwoPole& sys, double t);

/// threshold_delay with the grid bracket found by bisecting (0, i_peak]
/// from a probe at its top, the reference step response for v and v', and
/// the same Newton polish.  `evals` (if given) receives its evaluations of
/// v and v'; nothing is added to the metrics registry.
DelayResult reference_threshold_delay(const TwoPole& sys,
                                      const DelayOptions& opts,
                                      long* evals = nullptr);

}  // namespace rlc::core
