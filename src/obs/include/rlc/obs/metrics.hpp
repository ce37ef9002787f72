#pragma once

/// \file metrics.hpp
/// Process-wide metrics registry: named counters, gauges, and fixed-bin
/// log-scale histograms with p50/p90/p99 extraction.
///
/// Design constraints, in order:
///   * hot-path cost — counter adds and histogram records go to PER-THREAD
///     shards that only their owning thread writes (a relaxed atomic load
///     and store per cell on cache-local memory: no read-modify-write, no
///     locks, no contention); shards are merged only when a snapshot is
///     taken, and a histogram record takes one log;
///   * zero numerical footprint — recording observes solver behaviour, it
///     never participates in it, so instrumented code produces bit-identical
///     results with metrics hot or cold (pinned by tests/obs);
///   * thread-safety throughout — registration, recording, and snapshotting
///     may race freely (TSan-clean); a shard owned by an exiting thread is
///     merged into the registry under its lock, so its counts survive the
///     thread.
///
/// Gauges are the exception to sharding: a gauge is a *level* (e.g. the
/// pool's pending-loop depth), not a rate, so it lives as one shared atomic
/// that every thread updates with a read-modify-write — gauge updates are
/// per-task, not per-iteration, and contention there is negligible.
///
/// Usage from a hot path (the id lookup happens once per call site):
///
///   static const int solves = Registry::global().counter("newton.2d.solves");
///   static const int iters =
///       Registry::global().histogram("newton.2d.iterations", 1.0, 256.0, 24);
///   Registry::global().add(solves);
///   Registry::global().record(iters, result.iterations);

#include <cstdint>
#include <string>
#include <vector>

#include "rlc/io/json.hpp"

namespace rlc::obs {

/// Merged view of one histogram: fixed log-scale bins between lo and hi
/// plus an underflow bin (values < lo, including <= 0) and an overflow bin
/// (values >= hi), so no sample is ever silently dropped.
struct HistogramSnapshot {
  std::string name;
  double lo = 1.0;
  double hi = 2.0;
  /// bins.size() == interior bins + 2; bins.front() is underflow,
  /// bins.back() is overflow.
  std::vector<std::uint64_t> bins;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;

  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }

  /// Quantile estimate for q in [0, 1] by geometric interpolation inside
  /// the bin holding the rank; clamped to the observed [min, max] so the
  /// under/overflow bins answer with the exact extreme.  0 when empty.
  double quantile(double q) const;

  /// The n + 1 interior bin edges lo * (hi/lo)^(i/n) — strictly increasing
  /// (pinned by tests/obs).
  static std::vector<double> bin_edges(double lo, double hi, int bins);

  /// Bin index (into `bins`, i.e. 0 = underflow) for a value.
  static std::size_t bin_index(double lo, double hi, int bins, double value);

  /// Pointwise merge; the two snapshots must have identical shape
  /// (name/lo/hi/bin count) or std::invalid_argument is thrown.
  /// Associative and commutative in all integer fields (pinned by tests).
  HistogramSnapshot& merge(const HistogramSnapshot& other);
};

/// A consistent-enough merged view of every metric (see Registry::snapshot).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// This snapshot minus an earlier one: counters and histogram bins
  /// subtract (attribution of a bracketed region); gauges keep their
  /// current level (a level has no meaningful delta).  Metrics absent from
  /// `earlier` pass through whole.
  MetricsSnapshot delta_since(const MetricsSnapshot& earlier) const;

  /// Drop all-zero counters and empty histograms (after a delta, most of
  /// the registry is noise for the scenario at hand).
  MetricsSnapshot without_zeros() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  /// sum, min, max, mean, p50, p90, p99}}} — the envelope block written
  /// into BENCH_<name>.json (bin arrays stay API-only to keep artifacts
  /// small).
  io::Json to_json() const;

  /// Human-readable block for `rlc_run --metrics` (one line per metric).
  std::string table() const;
};

class Registry {
 public:
  /// The process-wide registry all instrumentation records into.
  static Registry& global();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Intern a metric by name; the same name always returns the same id
  /// (re-registration is the common case: every call site does it through
  /// a function-local static).  Throws std::invalid_argument on an empty
  /// name, a name already interned as a different kind, a histogram
  /// re-registered with a different shape, or on exhausting the fixed
  /// shard capacity (kMaxCounters / kMaxGauges / kMaxHistogramBins).
  int counter(const std::string& name);
  int gauge(const std::string& name);
  /// Log-scale histogram: `bins` interior bins between lo and hi
  /// (0 < lo < hi, 1 <= bins <= 512).
  int histogram(const std::string& name, double lo, double hi, int bins);

  /// Hot-path recording.  Ids must come from the interning calls above;
  /// out-of-range ids are ignored (never UB).
  void add(int counter_id, std::int64_t delta = 1) noexcept;
  void gauge_add(int gauge_id, std::int64_t delta) noexcept;
  void gauge_max(int gauge_id, std::int64_t value) noexcept;  ///< raise-only
  void record(int histogram_id, double value) noexcept;

  /// Merge every live shard plus the retired accumulator.  Consistent
  /// enough for reporting: each individual cell is atomic, the cross-cell
  /// view is whatever the still-running threads have published.  A region's
  /// share is the delta of two snapshots (MetricsSnapshot::delta_since);
  /// nothing but its owner writes a live shard, so there is no reset.
  MetricsSnapshot snapshot() const;

  // Fixed shard capacities; interning beyond them throws (a process has a
  // static set of instrumentation sites, so hitting these means a leak).
  static constexpr int kMaxCounters = 256;
  static constexpr int kMaxGauges = 64;
  static constexpr int kMaxHistograms = 64;
  static constexpr int kMaxHistogramBins = 4096;  ///< summed over histograms

 private:
  Registry();
  ~Registry();
  struct Impl;
  Impl* impl_;
};

}  // namespace rlc::obs
