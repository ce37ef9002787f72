#include "rlc/obs/metrics.hpp"

#include "rlc/obs/exporter.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace rlc::obs {

namespace {

void atomic_max_int(std::atomic<std::int64_t>& a, std::int64_t v) noexcept {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// Updates of a cell that one thread writes and others only read: a relaxed
// load and store, with no read-modify-write.
template <class T>
void owner_add(std::atomic<T>& a, T v) noexcept {
  a.store(a.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
}

void owner_min(std::atomic<double>& a, double v) noexcept {
  if (v < a.load(std::memory_order_relaxed)) {
    a.store(v, std::memory_order_relaxed);
  }
}

void owner_max(std::atomic<double>& a, double v) noexcept {
  if (v > a.load(std::memory_order_relaxed)) {
    a.store(v, std::memory_order_relaxed);
  }
}

/// A histogram's shape: all record() needs to place a value.
struct HistogramShape {
  double lo = 1.0;
  double hi = 2.0;
  int bins = 1;
  int bin_offset = 0;     ///< slice [bin_offset, bin_offset + bins + 2)
  double log_ratio = 0.0; ///< std::log(hi / lo), taken once

  /// HistogramSnapshot::bin_index(lo, hi, bins, value).
  std::size_t bin(double value) const {
    // NaN and everything below lo (including <= 0, where the log scale has
    // no bin) land in the underflow bin.
    if (!(value >= lo)) return 0;
    if (value >= hi) return static_cast<std::size_t>(bins) + 1;
    const double pos = bins * std::log(value / lo) / log_ratio;
    auto idx = static_cast<long>(pos);  // pos >= 0 here
    if (idx < 0) idx = 0;
    if (idx >= bins) idx = bins - 1;
    return static_cast<std::size_t>(idx) + 1;
  }
};

}  // namespace

// ------------------------------------------------------- HistogramSnapshot

std::vector<double> HistogramSnapshot::bin_edges(double lo, double hi,
                                                 int bins) {
  std::vector<double> edges;
  edges.reserve(static_cast<std::size_t>(bins) + 1);
  const double ratio = hi / lo;
  for (int i = 0; i <= bins; ++i) {
    edges.push_back(lo * std::pow(ratio, static_cast<double>(i) / bins));
  }
  // pow rounding must not break monotonicity at the ends.
  edges.front() = lo;
  edges.back() = hi;
  return edges;
}

std::size_t HistogramSnapshot::bin_index(double lo, double hi, int bins,
                                         double value) {
  return HistogramShape{lo, hi, bins, 0, std::log(hi / lo)}.bin(value);
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0 || bins.size() < 3) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count))));
  const int interior = static_cast<int>(bins.size()) - 2;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < bins.size(); ++b) {
    if (bins[b] == 0) continue;
    if (rank <= cum + bins[b]) {
      if (b == 0) return min;                    // underflow: exact extreme
      if (b + 1 == bins.size()) return max;      // overflow: exact extreme
      const double ratio = hi / lo;
      const double blo =
          lo * std::pow(ratio, static_cast<double>(b - 1) / interior);
      const double bhi =
          lo * std::pow(ratio, static_cast<double>(b) / interior);
      const double frac = (static_cast<double>(rank - cum) - 0.5) /
                          static_cast<double>(bins[b]);
      const double v = blo * std::pow(bhi / blo, frac);
      return std::clamp(v, min, max);
    }
    cum += bins[b];
  }
  return max;
}

HistogramSnapshot& HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (name != other.name || lo != other.lo || hi != other.hi ||
      bins.size() != other.bins.size()) {
    throw std::invalid_argument(
        "rlc::obs: cannot merge histograms of different shape (\"" + name +
        "\" vs \"" + other.name + "\")");
  }
  for (std::size_t i = 0; i < bins.size(); ++i) bins[i] += other.bins[i];
  if (other.count > 0) {
    min = count > 0 ? std::min(min, other.min) : other.min;
    max = count > 0 ? std::max(max, other.max) : other.max;
  }
  count += other.count;
  sum += other.sum;
  return *this;
}

// ---------------------------------------------------------- MetricsSnapshot

namespace {

/// Bound the extremes of a subtracted histogram from its occupied bins: the
/// per-run true min/max are not recoverable from cumulative snapshots, so
/// report the tightest bin-edge bounds instead (exact to bin resolution).
void rebound_extremes(HistogramSnapshot& h) {
  if (h.count == 0) {
    h.min = h.max = 0.0;
    return;
  }
  const int interior = static_cast<int>(h.bins.size()) - 2;
  const auto edges = HistogramSnapshot::bin_edges(h.lo, h.hi, interior);
  std::size_t first = 0, last = 0;
  for (std::size_t i = 0; i < h.bins.size(); ++i) {
    if (h.bins[i] > 0) last = i;
  }
  for (first = 0; first < h.bins.size() && h.bins[first] == 0; ++first) {
  }
  // Underflow keeps the cumulative min (only lower bound available);
  // interior bins bound by their edges; overflow keeps the cumulative max.
  if (first >= 1 && first <= static_cast<std::size_t>(interior)) {
    h.min = std::max(h.min, edges[first - 1]);
  }
  if (last >= 1 && last <= static_cast<std::size_t>(interior)) {
    h.max = std::min(h.max, edges[last]);
  }
  if (!(h.min <= h.max)) h.min = h.max;  // bounds crossed: collapse
}

}  // namespace

MetricsSnapshot MetricsSnapshot::delta_since(
    const MetricsSnapshot& earlier) const {
  MetricsSnapshot out = *this;
  for (auto& [name, value] : out.counters) {
    for (const auto& [ename, evalue] : earlier.counters) {
      if (ename == name) {
        value -= evalue;
        break;
      }
    }
  }
  // Gauges are levels: keep the current reading.
  for (auto& h : out.histograms) {
    for (const auto& eh : earlier.histograms) {
      if (eh.name != h.name || eh.bins.size() != h.bins.size()) continue;
      for (std::size_t i = 0; i < h.bins.size(); ++i) h.bins[i] -= eh.bins[i];
      h.count -= eh.count;
      h.sum -= eh.sum;
      rebound_extremes(h);
      break;
    }
  }
  return out;
}

MetricsSnapshot MetricsSnapshot::without_zeros() const {
  MetricsSnapshot out;
  for (const auto& c : counters) {
    if (c.second != 0) out.counters.push_back(c);
  }
  for (const auto& g : gauges) {
    if (g.second != 0) out.gauges.push_back(g);
  }
  for (const auto& h : histograms) {
    if (h.count != 0) out.histograms.push_back(h);
  }
  return out;
}

io::Json MetricsSnapshot::to_json() const {
  io::Json counters_j;
  for (const auto& [name, value] : counters) {
    counters_j.set(name, static_cast<long long>(value));
  }
  io::Json gauges_j;
  for (const auto& [name, value] : gauges) {
    gauges_j.set(name, static_cast<long long>(value));
  }
  io::Json hists_j;
  for (const auto& h : histograms) {
    io::Json hj;
    hj.set("count", static_cast<long long>(h.count));
    hj.set("sum", h.sum);
    hj.set("min", h.min);
    hj.set("max", h.max);
    hj.set("mean", h.mean());
    hj.set("p50", h.quantile(0.50));
    hj.set("p90", h.quantile(0.90));
    hj.set("p99", h.quantile(0.99));
    hists_j.set(h.name, hj);
  }
  io::Json j;
  j.set("counters", counters_j);
  j.set("gauges", gauges_j);
  j.set("histograms", hists_j);
  return j;
}

std::string MetricsSnapshot::table() const { return Exporter::text(*this); }

// ------------------------------------------------------------------ Registry

namespace {

/// One thread's slice of every metric.  Counters and histogram cells are
/// written only by the owning thread, with a relaxed load and store (no
/// read-modify-write, so no lock-prefixed instruction), and read by
/// snapshotters, so every field is atomic — that is the whole
/// synchronization story, no locks on the record path.  The registry's
/// retired accumulator is written only under its lock.
struct Shard {
  std::array<std::atomic<std::int64_t>, Registry::kMaxCounters> counters{};
  std::array<std::atomic<std::uint64_t>, Registry::kMaxHistogramBins> bins{};
  std::array<std::atomic<std::uint64_t>, Registry::kMaxHistograms> h_count{};
  std::array<std::atomic<double>, Registry::kMaxHistograms> h_sum{};
  std::array<std::atomic<double>, Registry::kMaxHistograms> h_min{};
  std::array<std::atomic<double>, Registry::kMaxHistograms> h_max{};

  Shard() {
    for (auto& m : h_min) {
      m.store(std::numeric_limits<double>::infinity(),
              std::memory_order_relaxed);
    }
    for (auto& m : h_max) {
      m.store(-std::numeric_limits<double>::infinity(),
              std::memory_order_relaxed);
    }
  }

  /// Fold `other` into this shard (used to retire exiting threads, under
  /// the registry's lock).
  void absorb(const Shard& other) noexcept {
    for (std::size_t i = 0; i < counters.size(); ++i) {
      owner_add(counters[i], other.counters[i].load(std::memory_order_relaxed));
    }
    for (std::size_t i = 0; i < bins.size(); ++i) {
      owner_add(bins[i], other.bins[i].load(std::memory_order_relaxed));
    }
    for (std::size_t i = 0; i < h_count.size(); ++i) {
      owner_add(h_count[i], other.h_count[i].load(std::memory_order_relaxed));
      owner_add(h_sum[i], other.h_sum[i].load(std::memory_order_relaxed));
      owner_min(h_min[i], other.h_min[i].load(std::memory_order_relaxed));
      owner_max(h_max[i], other.h_max[i].load(std::memory_order_relaxed));
    }
  }
};

}  // namespace

struct Registry::Impl {
  mutable std::mutex mu;  // registration, shard list, retirement, snapshot
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> hist_names;
  /// hist_shapes[i] is readable without the lock once i < hist_published:
  /// registration writes the slot, then publishes it with a release store
  /// of the count; record() acquires the count, and a slot never changes
  /// after it is published.
  std::array<HistogramShape, kMaxHistograms> hist_shapes{};
  std::atomic<int> hist_published{0};
  int bins_used = 0;
  std::array<std::atomic<std::int64_t>, kMaxGauges> gauges{};
  std::vector<Shard*> live;  ///< one per recording thread, owner-deleted
  Shard retired;             ///< folded-in shards of exited threads

  /// Owns one thread's shard; on thread exit the shard's counts are
  /// folded into the registry's retired accumulator so nothing is lost.
  /// The global registry is constructed before any shard and intentionally
  /// never destroyed, so `impl` outlives every handle.
  struct ShardHandle {
    Impl* impl = nullptr;
    Shard* shard = nullptr;
    ~ShardHandle() {
      if (impl && shard) impl->retire(shard);
    }
  };

  Shard& local_shard();
  void retire(Shard* s) noexcept;

  enum Kind { kCounter, kGauge, kHistogram };
  /// The id of `name` among the metrics of `kind`, or -1 when it is new;
  /// throws if another kind already holds the name.  Caller holds mu.
  int find(Kind kind, const std::string& name) const;
};

namespace {

void require_name(const std::string& name) {
  if (name.empty()) {
    throw std::invalid_argument("rlc::obs: metric name must be non-empty");
  }
}

}  // namespace

int Registry::Impl::find(Kind kind, const std::string& name) const {
  const std::vector<std::string>* const names[] = {&counter_names,
                                                   &gauge_names, &hist_names};
  static constexpr const char* kKindNames[] = {"counter", "gauge",
                                               "histogram"};
  for (int k = kCounter; k <= kHistogram; ++k) {
    const std::vector<std::string>& v = *names[k];
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (v[i] != name) continue;
      if (k == kind) return static_cast<int>(i);
      throw std::invalid_argument("rlc::obs: \"" + name + "\" is already a " +
                                  kKindNames[k]);
    }
  }
  return -1;
}

Shard& Registry::Impl::local_shard() {
  thread_local ShardHandle handle;
  if (handle.shard == nullptr) {
    auto* s = new Shard;
    {
      std::lock_guard<std::mutex> lk(mu);
      live.push_back(s);
    }
    handle.impl = this;
    handle.shard = s;
  }
  return *handle.shard;
}

void Registry::Impl::retire(Shard* s) noexcept {
  std::lock_guard<std::mutex> lk(mu);
  retired.absorb(*s);
  live.erase(std::remove(live.begin(), live.end(), s), live.end());
  delete s;
}

Registry::Registry() : impl_(new Impl) {}

Registry::~Registry() { delete impl_; }

Registry& Registry::global() {
  // Heap-allocated and never destroyed: shards retire into the registry
  // from thread-exit destructors, which must never race its teardown.
  static Registry* r = new Registry;
  return *r;
}

int Registry::counter(const std::string& name) {
  require_name(name);
  std::lock_guard<std::mutex> lk(impl_->mu);
  if (const int id = impl_->find(Impl::kCounter, name); id >= 0) return id;
  if (impl_->counter_names.size() >= kMaxCounters) {
    throw std::invalid_argument("rlc::obs: counter capacity exhausted");
  }
  impl_->counter_names.push_back(name);
  return static_cast<int>(impl_->counter_names.size()) - 1;
}

int Registry::gauge(const std::string& name) {
  require_name(name);
  std::lock_guard<std::mutex> lk(impl_->mu);
  if (const int id = impl_->find(Impl::kGauge, name); id >= 0) return id;
  if (impl_->gauge_names.size() >= kMaxGauges) {
    throw std::invalid_argument("rlc::obs: gauge capacity exhausted");
  }
  impl_->gauge_names.push_back(name);
  return static_cast<int>(impl_->gauge_names.size()) - 1;
}

int Registry::histogram(const std::string& name, double lo, double hi,
                        int bins) {
  require_name(name);
  if (!(lo > 0.0) || !(hi > lo)) {
    throw std::invalid_argument(
        "rlc::obs: histogram needs 0 < lo < hi (log-scale bins)");
  }
  if (bins < 1 || bins > 512) {
    throw std::invalid_argument("rlc::obs: histogram bins must be in [1, 512]");
  }
  std::lock_guard<std::mutex> lk(impl_->mu);
  if (const int id = impl_->find(Impl::kHistogram, name); id >= 0) {
    const HistogramShape& d = impl_->hist_shapes[static_cast<std::size_t>(id)];
    if (d.lo != lo || d.hi != hi || d.bins != bins) {
      throw std::invalid_argument("rlc::obs: histogram \"" + name +
                                  "\" re-registered with a different shape");
    }
    return id;
  }
  if (impl_->hist_names.size() >= kMaxHistograms ||
      impl_->bins_used + bins + 2 > kMaxHistogramBins) {
    throw std::invalid_argument("rlc::obs: histogram capacity exhausted");
  }
  const int id = static_cast<int>(impl_->hist_names.size());
  impl_->hist_names.push_back(name);
  impl_->hist_shapes[static_cast<std::size_t>(id)] = {
      lo, hi, bins, impl_->bins_used, std::log(hi / lo)};
  impl_->bins_used += bins + 2;
  impl_->hist_published.store(id + 1, std::memory_order_release);
  return id;
}

void Registry::add(int counter_id, std::int64_t delta) noexcept {
  if (counter_id < 0 || counter_id >= kMaxCounters) return;
  owner_add(
      impl_->local_shard().counters[static_cast<std::size_t>(counter_id)],
      delta);
}

void Registry::gauge_add(int gauge_id, std::int64_t delta) noexcept {
  if (gauge_id < 0 || gauge_id >= kMaxGauges) return;
  impl_->gauges[static_cast<std::size_t>(gauge_id)].fetch_add(
      delta, std::memory_order_relaxed);
}

void Registry::gauge_max(int gauge_id, std::int64_t value) noexcept {
  if (gauge_id < 0 || gauge_id >= kMaxGauges) return;
  atomic_max_int(impl_->gauges[static_cast<std::size_t>(gauge_id)], value);
}

void Registry::record(int histogram_id, double value) noexcept {
  // Ids not yet published (or never issued) are ignored.
  if (histogram_id < 0 ||
      histogram_id >= impl_->hist_published.load(std::memory_order_acquire)) {
    return;
  }
  const auto h = static_cast<std::size_t>(histogram_id);
  const HistogramShape& shape = impl_->hist_shapes[h];
  Shard& s = impl_->local_shard();
  owner_add(s.bins[static_cast<std::size_t>(shape.bin_offset) +
                   shape.bin(value)],
            std::uint64_t{1});
  owner_add(s.h_count[h], std::uint64_t{1});
  if (std::isfinite(value)) {
    owner_add(s.h_sum[h], value);
    owner_min(s.h_min[h], value);
    owner_max(s.h_max[h], value);
  }
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  MetricsSnapshot out;

  std::vector<const Shard*> shards;
  shards.reserve(impl_->live.size() + 1);
  shards.push_back(&impl_->retired);
  for (const Shard* s : impl_->live) shards.push_back(s);

  out.counters.reserve(impl_->counter_names.size());
  for (std::size_t i = 0; i < impl_->counter_names.size(); ++i) {
    std::int64_t total = 0;
    for (const Shard* s : shards) {
      total += s->counters[i].load(std::memory_order_relaxed);
    }
    out.counters.emplace_back(impl_->counter_names[i], total);
  }

  out.gauges.reserve(impl_->gauge_names.size());
  for (std::size_t i = 0; i < impl_->gauge_names.size(); ++i) {
    out.gauges.emplace_back(impl_->gauge_names[i],
                            impl_->gauges[i].load(std::memory_order_relaxed));
  }

  out.histograms.reserve(impl_->hist_names.size());
  for (std::size_t i = 0; i < impl_->hist_names.size(); ++i) {
    const HistogramShape& d = impl_->hist_shapes[i];
    HistogramSnapshot h;
    h.name = impl_->hist_names[i];
    h.lo = d.lo;
    h.hi = d.hi;
    h.bins.assign(static_cast<std::size_t>(d.bins) + 2, 0);
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    for (const Shard* s : shards) {
      for (std::size_t b = 0; b < h.bins.size(); ++b) {
        h.bins[b] +=
            s->bins[static_cast<std::size_t>(d.bin_offset) + b].load(
                std::memory_order_relaxed);
      }
      h.count += s->h_count[i].load(std::memory_order_relaxed);
      h.sum += s->h_sum[i].load(std::memory_order_relaxed);
      mn = std::min(mn, s->h_min[i].load(std::memory_order_relaxed));
      mx = std::max(mx, s->h_max[i].load(std::memory_order_relaxed));
    }
    h.min = h.count > 0 && std::isfinite(mn) ? mn : 0.0;
    h.max = h.count > 0 && std::isfinite(mx) ? mx : 0.0;
    out.histograms.push_back(std::move(h));
  }
  return out;
}

}  // namespace rlc::obs
