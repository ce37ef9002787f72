#pragma once

/// \file registry.hpp
/// Named-scenario registry: every experiment of the repo (paper figures and
/// table, ablations, extensions, perf studies) registers here as a pure
/// function ScenarioSpec -> ScenarioResult, and the single rlc_run driver
/// looks them up by name.  Registration is explicit (register_all_scenarios)
/// rather than via static initializers: the scenario code lives in a static
/// library, and the linker would silently drop self-registering translation
/// units nothing references.

#include <functional>
#include <string>
#include <vector>

#include "rlc/exec/thread_pool.hpp"
#include "rlc/scenario/result.hpp"
#include "rlc/scenario/spec.hpp"

namespace rlc::scenario {

/// Execution services handed to a scenario function: the pool its internal
/// sweeps should fan over (never null via pool_ref).  Solver activity is
/// counted by the obs registry; run_scenario attributes its delta to the
/// result's observability block.
struct ScenarioContext {
  exec::ThreadPool* pool = nullptr;  ///< null: exec::default_pool()

  exec::ThreadPool& pool_ref() const {
    return pool ? *pool : exec::default_pool();
  }
};

/// A scenario body: computes tables/metrics/notes on the result it returns.
/// Must not print, must not touch global state; determinism across thread
/// counts is part of the contract (enforced by tests).
using ScenarioFn =
    std::function<ScenarioResult(const ScenarioSpec&, ScenarioContext&)>;

struct Scenario {
  std::string name;   ///< registry key, also the BENCH_<name>.json stem
  std::string title;  ///< one-line description
  std::string group;  ///< "figure" | "table" | "ablation" | "extension" | "perf"
  ScenarioSpec defaults;  ///< tuned per-scenario default spec
  ScenarioFn fn;
  /// Objective family of the experiment's headline numbers:
  /// "delay" (the paper's tau/h metric), "noise" (crosstalk scenarios),
  /// "power" (power-aware sizing / Pareto sweeps).  Registration rejects
  /// anything else; rlc_run --list shows the column.
  std::string objective = "delay";
};

class ScenarioRegistry {
 public:
  /// The process-wide registry rlc_run and the tests use.
  static ScenarioRegistry& global();

  /// Register a scenario; throws std::invalid_argument on a duplicate name.
  void add(Scenario s);

  /// Lookup by name; nullptr when absent.
  const Scenario* find(const std::string& name) const;

  /// Status-carrying lookup for the public boundary: not_found (with the
  /// offending name) instead of nullptr.  The pointer is owned by the
  /// registry and stable for the life of the process.
  rlc::StatusOr<const Scenario*> lookup(const std::string& name) const;

  /// Registration-order scenario names.
  std::vector<std::string> names() const;

  std::size_t size() const { return scenarios_.size(); }

 private:
  std::vector<Scenario> scenarios_;
};

/// Populate the global registry with every experiment.  Idempotent — safe
/// to call from the driver and from each test.
void register_all_scenarios();

/// Shrink a spec for CI smoke runs: quick=true, trimmed sweep grids and
/// ladder sizes.  Scenario bodies additionally consult spec.quick for
/// scenario-specific trims (shorter ring l-lists, fewer timing reps).
ScenarioSpec quick_spec(ScenarioSpec spec);

/// Validate `spec`, run the scenario on `pool` (default pool when null)
/// between two registry snapshots, and fill the envelope fields (name,
/// title, spec, wall_seconds, threads, observability) on the result.
/// Exceptions from the body propagate — rlc_run catches them per scenario.
ScenarioResult run_scenario(const Scenario& s, const ScenarioSpec& spec,
                            exec::ThreadPool* pool = nullptr);

// Per-group registration (called by register_all_scenarios; exposed for
// focused tests).
void register_paper_scenarios(ScenarioRegistry& r);
void register_ring_scenarios(ScenarioRegistry& r);
void register_ablation_scenarios(ScenarioRegistry& r);
void register_extension_scenarios(ScenarioRegistry& r);
void register_xtalk_scenarios(ScenarioRegistry& r);
void register_power_scenarios(ScenarioRegistry& r);
void register_perf_scenarios(ScenarioRegistry& r);

}  // namespace rlc::scenario
