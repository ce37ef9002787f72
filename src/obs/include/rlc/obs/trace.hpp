#pragma once

/// \file trace.hpp
/// Scoped-span tracer with Chrome trace-event export.
///
/// Spans are recorded with an RAII guard placed at the top of a stage:
///
///   void solve(...) {
///     RLC_TRACE_SPAN("newton_2d");
///     ...
///   }
///
/// Cost model:
///   * tracer disabled (the default): the guard constructor is one relaxed
///     atomic load of a process-global flag — low single-digit ns, no
///     allocation, no branch taken;
///   * tracer enabled: start/stop are two steady_clock reads plus one
///     write-once slot in a PER-THREAD ring buffer (no locks, no
///     contention).  Rings are fixed-capacity; when a thread fills its
///     ring, newest spans are dropped and counted (`Tracer::dropped`), the
///     run itself is never perturbed.
///
/// Span names must be string literals or otherwise outlive the tracer
/// (e.g. names owned by the scenario registry) — the tracer stores the
/// pointer, not a copy, to keep the hot path allocation-free.
///
/// Export is Chrome trace-event JSON ("complete" X events with
/// microsecond timestamps), loadable in chrome://tracing or
/// https://ui.perfetto.dev.  `rollup()` aggregates the same events by
/// name for the BENCH_<name>.json `observability` block; `top_level_ns`
/// sums only depth-0 spans so it can be compared against wall time
/// without double-counting nested stages.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "rlc/base/status.hpp"
#include "rlc/io/json.hpp"

namespace rlc::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

class Tracer {
 public:
  /// The process-wide tracer every RLC_TRACE_SPAN records into.
  static Tracer& global();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The ~ns guard check; true between enable() and disable().
  static bool enabled() noexcept {
    return detail::g_trace_enabled.load(std::memory_order_relaxed);
  }

  /// Start capturing: clears previously captured spans, re-arms every
  /// ring, and stamps the epoch all timestamps are relative to.  Call at
  /// quiescence (spans in flight across enable() may be lost or
  /// mis-based, never unsafe).
  void enable() noexcept;

  /// Stop capturing; recorded spans stay available for export.
  void disable() noexcept;

  /// Spans aggregated by name, sorted by total_ns descending.
  struct SpanStats {
    std::string name;
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;      ///< sum of span durations
    std::int64_t top_level_ns = 0;  ///< sum over depth-0 spans only
  };
  std::vector<SpanStats> rollup() const;

  /// {"spans": {name: {count, total_ns, top_level_ns}}, "dropped": n},
  /// its spans in name order.
  io::Json rollup_json() const;

  /// Full Chrome trace-event document (traceEvents + thread-name
  /// metadata).  Safe to call while spans are still being recorded: it
  /// reads each ring only up to its published count.
  io::Json chrome_trace_json() const;

  /// Render chrome_trace_json() to `path` via rlc::io; false on I/O error.
  bool write_chrome_trace(const std::string& path) const;

  std::uint64_t span_count() const;  ///< spans captured and retained
  std::uint64_t dropped() const;     ///< spans lost to full rings

  /// Drop all captured spans (rings stay armed if enabled).
  void clear() noexcept;

  /// Monotonic nanoseconds (steady_clock); public for tests.
  static std::int64_t now_ns() noexcept;

  /// Default per-thread ring capacity in spans (64Ki ≈ 2 MiB per recording
  /// thread, allocated lazily on that thread's first span).  Overridable
  /// via RLC_TRACE_RING, resolved once at tracer construction.
  static constexpr std::size_t kRingCapacity = std::size_t{1} << 16;

  /// Upper bound accepted from RLC_TRACE_RING (4Mi spans ≈ 128 MiB per
  /// recording thread — past that the ring is the memory bug).
  static constexpr std::size_t kMaxRingCapacity = std::size_t{1} << 22;

  /// Strict parse of an RLC_TRACE_RING value, mirroring the
  /// RLC_NUM_THREADS contract (rlc::exec::parse_thread_count_strict):
  /// nullptr (unset) means "use the default" and returns 0; anything else
  /// must be an integer in [1, kMaxRingCapacity] or the parse fails with
  /// invalid_argument.  Drivers call this at startup and exit non-zero on
  /// error; the tracer itself falls back to the default with a one-shot
  /// stderr warning so a bad value can never crash library users.
  static rlc::StatusOr<std::size_t> parse_ring_capacity_strict(
      const char* text);

  /// The per-thread ring capacity in effect (RLC_TRACE_RING if valid,
  /// else kRingCapacity).  Rings created before a capacity change would
  /// keep their size, but the value is resolved once in the constructor
  /// so every ring in a process agrees.
  std::size_t ring_capacity() const;

 private:
  Tracer();
  ~Tracer();
  friend class SpanGuard;
  struct Impl;
  Impl* impl_;
};

/// RAII span: measures construction→destruction while the tracer is
/// enabled, does (almost) nothing otherwise.  Spans on one thread nest;
/// the guard tracks depth so top-level time is attributable.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name) noexcept {
    if (Tracer::enabled()) begin(name);
  }
  ~SpanGuard() noexcept {
    if (name_ != nullptr) end();
  }

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  void begin(const char* name) noexcept;
  void end() noexcept;

  const char* name_ = nullptr;
  std::int64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
};

}  // namespace rlc::obs

#define RLC_OBS_CONCAT_IMPL(a, b) a##b
#define RLC_OBS_CONCAT(a, b) RLC_OBS_CONCAT_IMPL(a, b)

/// Trace the enclosing scope as a span named `name` (a string literal or
/// other pointer that outlives the tracer).
#define RLC_TRACE_SPAN(name) \
  ::rlc::obs::SpanGuard RLC_OBS_CONCAT(rlc_obs_span_, __LINE__)(name)
