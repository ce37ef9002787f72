#pragma once

/// \file session.hpp
/// rlc::svc::Session — the warm, reusable entry point of the query service
/// and the centre of this repo's redesigned public API.
///
/// A Session owns:
///   * its own exec::ThreadPool, kept alive across requests so the
///     thread-local Talbot contour bases and transfer-evaluator scratch the
///     exact-waveform engine builds on first use stay WARM for every
///     subsequent query on the same worker;
///   * a content-addressed LRU result cache keyed on the canonical request
///     string (QueryRequest::cache_key) — identical queries are answered
///     without re-solving;
///   * the svc.* metrics (queue depth, batch size, cache hit rate, latency
///     histogram with p50/p99, deadline/cancel counts), exported through
///     the process-wide rlc::obs registry.
///
/// Error contract (DESIGN.md "Errors"): every submit returns
/// StatusOr<QueryResult>; a solve and a scenario run inside rlc::at_boundary
/// (base/cancel.hpp), so no exception crosses this boundary.  Each failed
/// answer counts once, by its Status code: cancelled in svc.cancelled,
/// deadline_exceeded in svc.deadline_exceeded, any other code in
/// svc.errors.  Deadlines and cancellation are honored cooperatively: each
/// request-task installs an ExecScope on its worker thread, and the
/// Newton/Brent/Talbot loops checkpoint at iteration boundaries.  A request
/// whose deadline is already expired (deadline_seconds == 0) returns
/// deadline_exceeded before touching the cache or the solver — no partial
/// work, no cache write.
///
/// Determinism: a QueryResult's numeric payload depends only on the
/// request (each solve is single-seeded and self-contained), so
/// submit_batch is bit-identical to serial submit calls for any thread
/// count — pinned by tests/svc.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "rlc/base/cancel.hpp"
#include "rlc/base/status.hpp"
#include "rlc/scenario/result.hpp"
#include "rlc/scenario/spec.hpp"
#include "rlc/svc/cache.hpp"
#include "rlc/svc/query.hpp"

namespace rlc::svc {

struct SessionOptions {
  /// Worker threads of the session pool; 0 picks
  /// exec::default_thread_count() (RLC_NUM_THREADS-aware).
  std::size_t threads = 0;
  /// Result-cache capacity in entries; 0 disables caching.
  std::size_t cache_capacity = 4096;
};

class Session {
 public:
  explicit Session(const SessionOptions& opts = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Answer one query: a batch of one (below), answered on the calling
  /// thread and counted like any batch.  The token (default: never fires)
  /// combines with the request's own deadline.
  rlc::StatusOr<QueryResult> submit(const QueryRequest& req,
                                    const CancelToken& cancel = {});

  /// Answer a batch, sharded over the session pool (grain 1 — each request
  /// is one task).  Same-key requests are grouped first: the earliest
  /// occurrence of each cache key solves in a leader pass (its cold miss
  /// pays the batched SoA contour sweeps once per distinct line), then the
  /// duplicates resolve from the freshly filled cache — deterministic for
  /// any thread count because grouping follows request order; a batch of
  /// one skips the grouping.  Results are in input order; each element
  /// carries its own Status, so one bad request never poisons its
  /// neighbours.  The token cancels every not-yet-finished request in the
  /// batch.
  ///
  /// `received_ns` holds per-request receive timestamps (obs::Tracer::now_ns
  /// clock; 0 or a missing entry means unknown).  The gap between a
  /// request's receive stamp and its pickup on a worker is attributed as
  /// queue time in the per-stage tracing (query.hpp trace block) — the
  /// event-loop server stamps requests as they are framed off the wire.
  std::vector<rlc::StatusOr<QueryResult>> submit_batch(
      const std::vector<QueryRequest>& reqs, const CancelToken& cancel = {},
      const std::vector<std::int64_t>& received_ns = {});

  /// Run a full registered scenario on the session pool (the rlc_serve
  /// "scenario" op).  Uncached — scenario envelopes carry wall-clock and
  /// counter fields that are not content-addressable.  The deadline (in
  /// seconds, infinity = none) and token propagate into the scenario's
  /// internal sweeps via the pool's scope inheritance.
  rlc::StatusOr<scenario::ScenarioResult> run_scenario(
      const scenario::ScenarioSpec& spec,
      double deadline_seconds = kNoDeadline,
      const CancelToken& cancel = {});

  std::size_t threads() const;

  LruCache<QueryResult>::Stats cache_stats() const;
  void clear_cache();

  static constexpr double kNoDeadline =
      std::numeric_limits<double>::infinity();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rlc::svc
