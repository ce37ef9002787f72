#pragma once

/// \file query.hpp
/// The unit of traffic of the rlc::svc query service: one parametric
/// optimizer lookup (technology, inductance, threshold) -> (h_opt, k_opt,
/// delay), exactly the small repeated query a signal-integrity flow issues
/// by the thousands (paper Section 4; DesignCon-style SI optimization
/// loops).  Requests validate to a typed Status, round-trip through JSON
/// (the rlc_serve wire format), and hash to a canonical content-addressed
/// cache key.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>

#include "rlc/base/status.hpp"
#include "rlc/io/json.hpp"
#include "rlc/io/json_reader.hpp"

namespace rlc::svc {

/// One optimizer query.  Field names and defaults deliberately mirror
/// core::OptimOptions / ScenarioSpec (post options-hygiene spellings).
struct QueryRequest {
  std::string technology = "100nm";  ///< see scenario::technology_by_name
  double l = 0.0;                    ///< per-unit-length inductance [H/m]
  double threshold = 0.5;            ///< delay threshold fraction, in (0, 1)
  int max_iterations = 80;           ///< Newton budget of the (h, k) solve
  double residual_tolerance = 1e-9;
  bool with_exact_delay = false;  ///< also run the exact-waveform engine
  int talbot_points = 48;         ///< exact-engine contour size
  double line_length = 0.0;       ///< >0: also report L/h * tau over L [m]

  /// Coupled-bus extension (schema-transparent: the defaults reproduce the
  /// single-line query bit-for-bit).  n_conductors >= 2 sizes a symmetric
  /// bus of identical wires: the optimizer works on the quiet-neighbour
  /// effective line and the answer carries the exact victim noise at the
  /// optimum; noise_vmax > 0 additionally routes through the
  /// noise-constrained active-set solve (peak_noise <= noise_vmax).
  int n_conductors = 1;      ///< 1 (scalar), 2 or 3
  double coupling_cc = 0.0;  ///< line-to-line capacitance [F/m], >= 0
  /// Inductive coupling coefficient, |km| < tline::coupling_km_bound(n):
  /// 1 at n = 2, 1/sqrt(2) at n = 3.
  double coupling_km = 0.0;
  double noise_vmax = 0.0;   ///< >0: peak-noise budget [V] (needs n >= 2)

  /// Objective extension (schema-transparent: an omitted/default objective
  /// serializes, hashes and answers byte-identically to the pre-objective
  /// scalar wire).  "power" minimizes total chain power subject to
  /// delay <= (1 + delay_slack_eps) * T_opt (core::optimize, objective
  /// kPower); any other non-default string is a typed invalid_argument —
  /// never a silent fallback to "delay".  Requires n_conductors == 1.
  std::string objective = "delay";  ///< "delay" | "power"
  /// Power-objective delay slack (>= 0; infinity = unconstrained).  Only
  /// meaningful — and only on the wire / in the cache key — with
  /// objective "power".
  double delay_slack_eps = kDefaultDelaySlackEps;

  static constexpr double kDefaultDelaySlackEps = 0.05;

  /// Per-request latency budget in seconds, measured from the moment the
  /// service picks the request up.  Infinity (the default) means no
  /// deadline; 0 is an already-expired budget and comes back
  /// deadline_exceeded without starting any work.
  double deadline_seconds = std::numeric_limits<double>::infinity();

  /// Optional client-supplied trace id (<= kMaxTraceIdLength chars).  Empty
  /// (the default) means untraced: the response is byte-identical to the
  /// pre-tracing wire format.  Non-empty echoes the id on the result along
  /// with per-stage timings (queue/cache/solve) and makes the request
  /// eligible for the slow-query log.  Excluded from cache_key(): a trace
  /// id changes what is reported about the answer, never the answer.
  std::string trace_id;

  static constexpr std::size_t kMaxTraceIdLength = 128;

  /// OK or invalid_argument naming the first bad field.
  rlc::Status validate() const;

  /// Canonical content-addressed key: every RESULT-AFFECTING field, fixed
  /// order, exact double bits (%.17g).  deadline_seconds is excluded — a
  /// deadline changes whether you get an answer, never which answer.
  std::string cache_key() const;

  /// cache_hash_of(cache_key()), for logs/metrics shards.
  std::uint64_t cache_hash() const;

  io::Json to_json() const;

  /// Parse from a request object (unknown keys ignored, missing keys take
  /// the defaults above), then validate.  Never throws.
  static rlc::StatusOr<QueryRequest> from_json(const io::JsonValue& v);

  bool operator==(const QueryRequest&) const = default;
};

/// FNV-1a 64 of a cache key: QueryRequest::cache_hash() of the request whose
/// cache_key() it is, for a caller that already holds the key.
std::uint64_t cache_hash_of(std::string_view key);

/// Everything one query produced.  Numeric fields are bit-identical for a
/// given request whether computed serially, in a batch on any thread
/// count, or replayed from the cache (pinned by tests/svc).
struct QueryResult {
  double h = 0.0;                 ///< optimal segment length [m]
  double k = 0.0;                 ///< optimal repeater size
  double tau = 0.0;               ///< threshold delay of one segment [s]
  double delay_per_length = 0.0;  ///< tau / h [s/m]
  double total_delay = 0.0;       ///< line_length > 0: delay_per_length * L
  double exact_delay = 0.0;       ///< exact-waveform segment delay [s]
  bool has_exact = false;         ///< exact_delay is meaningful
  double peak_noise = 0.0;        ///< exact victim peak noise [V]
  double noise_width = 0.0;       ///< its half-magnitude width [s]
  bool constraint_active = false; ///< noise_vmax bound the (h, k) answer
  bool has_noise = false;         ///< the noise fields are meaningful

  /// Power block, populated (and serialized) only for objective "power" —
  /// default-objective responses keep the pre-power wire shape byte-for-
  /// byte.  All power figures are chain power per unit length [W/m].
  double power_total = 0.0;          ///< total at the answer
  double power_dynamic = 0.0;        ///< C V^2 f component
  double power_short_circuit = 0.0;  ///< crowbar component
  double power_leakage = 0.0;        ///< subthreshold component
  double delay_ref = 0.0;            ///< delay-optimal T_opt [s/m]
  double power_ref = 0.0;            ///< power at the delay optimum [W/m]
  bool power_constraint_active = false;  ///< the slack bound the answer
  bool has_power = false;            ///< the power fields are meaningful
  int newton_iterations = 0;
  std::string method;       ///< "newton" | "nelder_mead"
  bool from_cache = false;  ///< served from the session result cache
  double wall_seconds = 0.0;  ///< compute time of THIS call (~0 on a hit)

  /// Tracing block, populated (and serialized) only when the request
  /// carried a trace_id — old clients see byte-identical responses.
  std::string trace_id;   ///< echoed from the request
  double queue_us = 0.0;  ///< receive -> session pickup (0 for direct calls)
  double cache_us = 0.0;  ///< result-cache lookup time
  double solve_us = 0.0;  ///< engine time (0 on a cache hit)

  /// The answer members of to_json(), "h" through "method", rendered once
  /// by render_answer() and shared, immutable, by every copy: a cache hit
  /// writes them as they are.  Not part of the answer (same_answer and the
  /// cache key never read it).  Null until render_answer(); a result whose
  /// answer fields change afterwards must render again.
  std::shared_ptr<const std::string> answer_members;

  /// Render the answer members above from the fields as they stand.
  void render_answer();

  /// Append this result's members (to_json() without its braces) to `out`:
  /// the kept answer members, or a fresh rendering when there are none,
  /// then from_cache, wall_seconds and a traced request's block.
  void append_members(std::string& out) const;

  io::Json to_json() const;

  /// Equality over the numeric payload only (from_cache / wall_seconds are
  /// delivery metadata, not part of the answer).
  bool same_answer(const QueryResult& o) const;
};

}  // namespace rlc::svc
