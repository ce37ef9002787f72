#pragma once

/// Internal: the probe checks run_transient and run_ac make up front.

#include <string>
#include <vector>

#include "rlc/spice/transient.hpp"

namespace rlc::spice::detail {

/// Throws std::invalid_argument, naming `analysis` and the probe's label,
/// for a probe the finalized `ckt` cannot answer: a node outside it, a
/// device not in it, a branch current of a device without a branch, or a
/// resistor current of a device that is not a resistor.
void check_probes(const Circuit& ckt, const std::vector<Probe>& probes,
                  const std::string& analysis);

}  // namespace rlc::spice::detail
