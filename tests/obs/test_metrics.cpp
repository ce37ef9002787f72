/// rlc::obs metrics registry: histogram math against brute-force
/// references, shard-merge algebra, interning contracts, and the
/// thread-safety guarantees the header promises (this binary is also run
/// under TSan in CI, so the concurrent tests double as race detectors).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "rlc/obs/metrics.hpp"

namespace {

using rlc::obs::HistogramSnapshot;
using rlc::obs::MetricsSnapshot;
using rlc::obs::Registry;

std::int64_t counter_value(const MetricsSnapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  return std::numeric_limits<std::int64_t>::min();
}

std::int64_t gauge_value(const MetricsSnapshot& s, const std::string& name) {
  for (const auto& [n, v] : s.gauges) {
    if (n == name) return v;
  }
  return std::numeric_limits<std::int64_t>::min();
}

const HistogramSnapshot* find_hist(const MetricsSnapshot& s,
                                   const std::string& name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

/// Build a snapshot by hand from raw samples, the same way a shard would.
HistogramSnapshot make_hist(const std::vector<double>& samples, double lo,
                            double hi, int n) {
  HistogramSnapshot h;
  h.name = "ref";
  h.lo = lo;
  h.hi = hi;
  h.bins.assign(static_cast<std::size_t>(n) + 2, 0);
  for (double v : samples) {
    ++h.bins[HistogramSnapshot::bin_index(lo, hi, n, v)];
    ++h.count;
    h.sum += v;
    h.min = h.count == 1 ? v : std::min(h.min, v);
    h.max = h.count == 1 ? v : std::max(h.max, v);
  }
  return h;
}

/// The quantile definition the header promises: rank = max(1, ceil(q*n)),
/// answered from the sorted samples.
double brute_force_quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::max<std::size_t>(rank, 1);
  return samples[rank - 1];
}

TEST(HistogramMath, BinEdgesAreStrictlyIncreasingAndPinned) {
  for (const auto& [lo, hi, n] : {std::tuple{1.0, 256.0, 24},
                                  std::tuple{1e-7, 10.0, 32},
                                  std::tuple{4.0, 4096.0, 20},
                                  std::tuple{1.0, 2.0, 1},
                                  std::tuple{1e-12, 1e12, 512}}) {
    const std::vector<double> edges = HistogramSnapshot::bin_edges(lo, hi, n);
    ASSERT_EQ(edges.size(), static_cast<std::size_t>(n) + 1);
    EXPECT_EQ(edges.front(), lo);
    EXPECT_EQ(edges.back(), hi);
    for (std::size_t i = 1; i < edges.size(); ++i) {
      EXPECT_LT(edges[i - 1], edges[i]) << "lo=" << lo << " hi=" << hi;
    }
  }
}

TEST(HistogramMath, BinIndexRoutesEveryValueSomewhere) {
  const double lo = 1.0, hi = 256.0;
  const int n = 8;
  // Underflow: below lo, zero, negative, NaN all land in bin 0.
  EXPECT_EQ(HistogramSnapshot::bin_index(lo, hi, n, 0.5), 0u);
  EXPECT_EQ(HistogramSnapshot::bin_index(lo, hi, n, 0.0), 0u);
  EXPECT_EQ(HistogramSnapshot::bin_index(lo, hi, n, -3.0), 0u);
  EXPECT_EQ(HistogramSnapshot::bin_index(
                lo, hi, n, std::numeric_limits<double>::quiet_NaN()),
            0u);
  // Overflow: >= hi.
  EXPECT_EQ(HistogramSnapshot::bin_index(lo, hi, n, hi),
            static_cast<std::size_t>(n) + 1);
  EXPECT_EQ(HistogramSnapshot::bin_index(
                lo, hi, n, std::numeric_limits<double>::infinity()),
            static_cast<std::size_t>(n) + 1);
  // Interior: a value between edges i and i+1 lands in interior bin i + 1,
  // and a value exactly on an edge belongs to the bin above it.
  const std::vector<double> edges = HistogramSnapshot::bin_edges(lo, hi, n);
  for (int i = 0; i < n; ++i) {
    const double mid = std::sqrt(edges[i] * edges[i + 1]);
    EXPECT_EQ(HistogramSnapshot::bin_index(lo, hi, n, mid),
              static_cast<std::size_t>(i) + 1)
        << "mid of bin " << i;
  }
  EXPECT_EQ(HistogramSnapshot::bin_index(lo, hi, n, lo), 1u);
}

TEST(HistogramMath, QuantilesMatchBruteForceWithinOneBin) {
  const double lo = 1e-6, hi = 1e2;
  const int n = 48;
  // One bin spans a geometric factor of (hi/lo)^(1/n); the estimate and the
  // true rank sample always share a bin, so their ratio is bounded by it.
  const double bin_ratio = std::pow(hi / lo, 1.0 / n);
  std::mt19937_64 rng(20260806);
  std::uniform_real_distribution<double> log_u(std::log(lo * 1.01),
                                               std::log(hi * 0.99));
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<double> samples;
    const int count = 10 + trial * 137;
    samples.reserve(count);
    for (int i = 0; i < count; ++i) samples.push_back(std::exp(log_u(rng)));
    const HistogramSnapshot h = make_hist(samples, lo, hi, n);
    for (double q : {0.5, 0.9, 0.99}) {
      const double ref = brute_force_quantile(samples, q);
      const double est = h.quantile(q);
      EXPECT_GT(est, ref / (bin_ratio * 1.0000001))
          << "trial " << trial << " q " << q;
      EXPECT_LT(est, ref * bin_ratio * 1.0000001)
          << "trial " << trial << " q " << q;
    }
  }
}

TEST(HistogramMath, QuantilesAreMonotoneAndClampedToObservedRange) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.5, 400.0);  // spills both ends
  std::vector<double> samples = {0.6, 300.0};  // pin under/overflow occupancy
  for (int i = 0; i < 500; ++i) samples.push_back(u(rng));
  const HistogramSnapshot h = make_hist(samples, 1.0, 256.0, 16);
  double prev = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const double v = h.quantile(q);
    EXPECT_GE(v, h.min);
    EXPECT_LE(v, h.max);
    EXPECT_GE(v, prev) << "q " << q;
    prev = v;
  }
  // The extreme quantiles answer with the exact extremes even though those
  // samples live in the under/overflow bins.
  EXPECT_EQ(h.quantile(0.0), h.min);
  EXPECT_EQ(h.quantile(1.0), h.max);
}

TEST(HistogramMath, EmptyHistogramIsInert) {
  const HistogramSnapshot h = make_hist({}, 1.0, 10.0, 4);
  EXPECT_EQ(h.count, 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(HistogramMath, MergeOfShardsIsAssociative) {
  const double lo = 1.0, hi = 1e3;
  const int n = 12;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> u(0.1, 2e3);
  std::vector<double> sa, sb, sc;
  for (int i = 0; i < 300; ++i) {
    (i % 3 == 0 ? sa : i % 3 == 1 ? sb : sc).push_back(u(rng));
  }
  const HistogramSnapshot a = make_hist(sa, lo, hi, n);
  const HistogramSnapshot b = make_hist(sb, lo, hi, n);
  const HistogramSnapshot c = make_hist(sc, lo, hi, n);

  HistogramSnapshot left = a;
  left.merge(b);
  left.merge(c);
  HistogramSnapshot bc = b;
  bc.merge(c);
  HistogramSnapshot right = a;
  right.merge(bc);

  // Integer fields are exactly associative; sum is floating addition, so
  // near-equality is the contract there.
  EXPECT_EQ(left.bins, right.bins);
  EXPECT_EQ(left.count, right.count);
  EXPECT_EQ(left.min, right.min);
  EXPECT_EQ(left.max, right.max);
  EXPECT_NEAR(left.sum, right.sum, 1e-9 * std::abs(left.sum));

  // And the merged totals match a single-shard pass over all samples.
  std::vector<double> all = sa;
  all.insert(all.end(), sb.begin(), sb.end());
  all.insert(all.end(), sc.begin(), sc.end());
  const HistogramSnapshot whole = make_hist(all, lo, hi, n);
  EXPECT_EQ(left.bins, whole.bins);
  EXPECT_EQ(left.count, whole.count);
  EXPECT_EQ(left.min, whole.min);
  EXPECT_EQ(left.max, whole.max);
}

TEST(HistogramMath, MergeWithEmptySideKeepsExtremes) {
  const HistogramSnapshot full = make_hist({2.0, 8.0}, 1.0, 10.0, 4);
  HistogramSnapshot acc = make_hist({}, 1.0, 10.0, 4);
  acc.name = full.name;
  acc.merge(full);
  EXPECT_EQ(acc.min, 2.0);
  EXPECT_EQ(acc.max, 8.0);
  HistogramSnapshot acc2 = full;
  acc2.merge(make_hist({}, 1.0, 10.0, 4));
  EXPECT_EQ(acc2.min, 2.0);
  EXPECT_EQ(acc2.max, 8.0);
}

TEST(HistogramMath, MergeRejectsShapeMismatch) {
  HistogramSnapshot a = make_hist({2.0}, 1.0, 10.0, 4);
  const HistogramSnapshot b = make_hist({2.0}, 1.0, 10.0, 8);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(MetricsRegistry, InterningIsIdempotentAndKindChecked) {
  Registry& reg = Registry::global();
  const int c1 = reg.counter("t.metrics.intern.counter");
  const int c2 = reg.counter("t.metrics.intern.counter");
  EXPECT_EQ(c1, c2);
  const int g1 = reg.gauge("t.metrics.intern.gauge");
  const int g2 = reg.gauge("t.metrics.intern.gauge");
  EXPECT_EQ(g1, g2);
  const int h1 = reg.histogram("t.metrics.intern.hist", 1.0, 100.0, 8);
  const int h2 = reg.histogram("t.metrics.intern.hist", 1.0, 100.0, 8);
  EXPECT_EQ(h1, h2);

  EXPECT_THROW(reg.counter(""), std::invalid_argument);
  // A name cannot change kind: each of the six cross-kind clashes throws,
  // naming the kind that holds the name...
  const auto clash = [](const std::function<void()>& intern,
                        const std::string& holder) {
    try {
      intern();
      ADD_FAILURE() << "no clash with the " << holder;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("is already a " + holder),
                std::string::npos)
          << e.what();
    }
  };
  clash([&] { reg.gauge("t.metrics.intern.counter"); }, "counter");
  clash([&] { reg.histogram("t.metrics.intern.counter", 1.0, 100.0, 8); },
        "counter");
  clash([&] { reg.counter("t.metrics.intern.gauge"); }, "gauge");
  clash([&] { reg.histogram("t.metrics.intern.gauge", 1.0, 100.0, 8); },
        "gauge");
  clash([&] { reg.counter("t.metrics.intern.hist"); }, "histogram");
  clash([&] { reg.gauge("t.metrics.intern.hist"); }, "histogram");
  // ...and a histogram cannot change shape.
  EXPECT_THROW(reg.histogram("t.metrics.intern.hist", 1.0, 100.0, 16),
               std::invalid_argument);
  EXPECT_THROW(reg.histogram("t.metrics.intern.hist", 2.0, 100.0, 8),
               std::invalid_argument);
  // Degenerate shapes are rejected outright.
  EXPECT_THROW(reg.histogram("t.metrics.bad.shape", 10.0, 1.0, 8),
               std::invalid_argument);
  EXPECT_THROW(reg.histogram("t.metrics.bad.bins", 1.0, 10.0, 0),
               std::invalid_argument);
}

TEST(MetricsRegistry, CountersGaugesHistogramsRoundTripThroughSnapshot) {
  Registry& reg = Registry::global();
  const int c = reg.counter("t.metrics.rt.counter");
  const int g = reg.gauge("t.metrics.rt.gauge");
  const int h = reg.histogram("t.metrics.rt.hist", 1.0, 1000.0, 10);

  const MetricsSnapshot before = reg.snapshot();
  reg.add(c);
  reg.add(c, 41);
  reg.gauge_add(g, 5);
  reg.gauge_add(g, -2);
  reg.gauge_max(g, 2);  // raise-only: 2 < 3 leaves the level alone
  reg.record(h, 10.0);
  reg.record(h, 100.0);
  reg.record(h, 0.5);  // underflow, still counted
  const MetricsSnapshot delta = reg.snapshot().delta_since(before);

  EXPECT_EQ(counter_value(delta, "t.metrics.rt.counter"), 42);
  EXPECT_EQ(gauge_value(delta, "t.metrics.rt.gauge"), 3);
  const HistogramSnapshot* hs = find_hist(delta, "t.metrics.rt.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 3u);
  EXPECT_NEAR(hs->sum, 110.5, 1e-12);
  EXPECT_EQ(hs->min, 0.5);
  EXPECT_EQ(hs->max, 100.0);

  // Out-of-range ids are ignored, never UB.
  reg.add(-1);
  reg.add(1 << 20);
  reg.record(-1, 1.0);
  reg.gauge_add(1 << 20, 7);
}

TEST(MetricsRegistry, WithoutZerosDropsIdleMetrics) {
  Registry& reg = Registry::global();
  const int used = reg.counter("t.metrics.wz.used");
  (void)reg.counter("t.metrics.wz.idle");
  (void)reg.histogram("t.metrics.wz.empty", 1.0, 10.0, 4);
  const MetricsSnapshot before = reg.snapshot();
  reg.add(used, 3);
  const MetricsSnapshot delta = reg.snapshot().delta_since(before).without_zeros();
  EXPECT_EQ(counter_value(delta, "t.metrics.wz.used"), 3);
  EXPECT_EQ(counter_value(delta, "t.metrics.wz.idle"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(find_hist(delta, "t.metrics.wz.empty"), nullptr);
}

TEST(MetricsRegistry, ExitedThreadsShardIsRetainedInSnapshots) {
  Registry& reg = Registry::global();
  const int c = reg.counter("t.metrics.retire.counter");
  const int h = reg.histogram("t.metrics.retire.hist", 1.0, 100.0, 8);
  const MetricsSnapshot before = reg.snapshot();
  std::thread worker([&] {
    for (int i = 0; i < 1000; ++i) {
      reg.add(c);
      reg.record(h, 7.5);
    }
  });
  worker.join();  // the worker's shard is retired at thread exit
  const MetricsSnapshot delta = reg.snapshot().delta_since(before);
  EXPECT_EQ(counter_value(delta, "t.metrics.retire.counter"), 1000);
  const HistogramSnapshot* hs = find_hist(delta, "t.metrics.retire.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 1000u);
}

/// Many threads hammering the same metrics while a reader snapshots: the
/// final totals must be exact and the interleaving race-free (TSan).
TEST(MetricsRegistry, ConcurrentRecordingLosesNothing) {
  Registry& reg = Registry::global();
  const int c = reg.counter("t.metrics.conc.counter");
  const int h = reg.histogram("t.metrics.conc.hist", 1.0, 1e6, 24);
  const int g = reg.gauge("t.metrics.conc.gauge");
  const MetricsSnapshot before = reg.snapshot();

  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  std::atomic<bool> stop{false};
  // A concurrent reader exercises the snapshot-while-recording path.
  workers.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) (void)reg.snapshot();
  });
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        reg.add(c);
        reg.record(h, static_cast<double>(1 + (t * kIters + i) % 100000));
        reg.gauge_add(g, 1);
        reg.gauge_add(g, -1);
      }
    });
  }
  for (std::size_t i = 1; i < workers.size(); ++i) workers[i].join();
  stop.store(true, std::memory_order_relaxed);
  workers[0].join();

  const MetricsSnapshot delta = reg.snapshot().delta_since(before);
  EXPECT_EQ(counter_value(delta, "t.metrics.conc.counter"),
            std::int64_t{kThreads} * kIters);
  const HistogramSnapshot* hs = find_hist(delta, "t.metrics.conc.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(gauge_value(reg.snapshot(), "t.metrics.conc.gauge"),
            gauge_value(before, "t.metrics.conc.gauge"));
}

/// Owner-written shards: four recorders add and record with plain loads and
/// stores on their own shards while a fifth thread snapshots, and one
/// recorder exits mid-run, so its shard is merged into the registry while
/// the others still record.  Every count, bin, sum and extreme must come
/// out exact (the samples are integers, so any summation order is exact),
/// and TSan must see no race.
TEST(MetricsRegistry, OwnerWrittenShardsStayExactAcrossSnapshotsAndExits) {
  Registry& reg = Registry::global();
  const int c = reg.counter("t.metrics.owner.counter");
  constexpr double kLo = 1.0, kHi = 4096.0;
  constexpr int kBins = 12;
  const int h = reg.histogram("t.metrics.owner.hist", kLo, kHi, kBins);
  const MetricsSnapshot before = reg.snapshot();

  constexpr int kRecorders = 4;
  constexpr int kIters = 20000;
  // Recorder t's i-th sample: integers 1..5000, over and past the bins.
  const auto sample = [](int t, int i) {
    return static_cast<double>(1 + (t * 7919 + i * 31) % 5000);
  };
  std::atomic<bool> exited{false};
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) (void)reg.snapshot();
  });
  std::vector<std::thread> recorders;
  const auto record_range = [&](int t, int from, int to) {
    for (int i = from; i < to; ++i) {
      reg.add(c, t + 1);
      reg.record(h, sample(t, i));
    }
  };
  // Recorder 0 records a quarter of its samples and exits; the others
  // record half of theirs, wait for its shard to be merged, then the rest.
  recorders.emplace_back([&] { record_range(0, 0, kIters / 4); });
  for (int t = 1; t < kRecorders; ++t) {
    recorders.emplace_back([&, t] {
      record_range(t, 0, kIters / 2);
      while (!exited.load(std::memory_order_acquire)) std::this_thread::yield();
      record_range(t, kIters / 2, kIters);
    });
  }
  recorders[0].join();
  exited.store(true, std::memory_order_release);
  for (int t = 1; t < kRecorders; ++t) recorders[t].join();
  stop.store(true, std::memory_order_relaxed);
  snapshotter.join();

  std::vector<double> samples;
  std::int64_t adds = 0;
  for (int t = 0; t < kRecorders; ++t) {
    const int n = t == 0 ? kIters / 4 : kIters;
    for (int i = 0; i < n; ++i) samples.push_back(sample(t, i));
    adds += std::int64_t{t + 1} * n;
  }
  HistogramSnapshot want = make_hist(samples, kLo, kHi, kBins);
  want.name = "t.metrics.owner.hist";
  if (const HistogramSnapshot* old = find_hist(before, want.name)) {
    HistogramSnapshot merged = *old;
    want = merged.merge(want);
  }
  const MetricsSnapshot after = reg.snapshot();
  EXPECT_EQ(counter_value(after, "t.metrics.owner.counter"),
            counter_value(before, "t.metrics.owner.counter") + adds);
  const HistogramSnapshot* got = find_hist(after, want.name);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->bins, want.bins);
  EXPECT_EQ(got->count, want.count);
  EXPECT_EQ(got->sum, want.sum);
  EXPECT_EQ(got->min, want.min);
  EXPECT_EQ(got->max, want.max);
  EXPECT_EQ(want.min, 1.0);
  EXPECT_EQ(want.max, 5000.0);
  EXPECT_GT(want.bins.back(), 0u);  // some samples overflow the last bin
}

/// Histograms registered while other threads record into the ones already
/// registered: record() reads a histogram's shape without the registry lock,
/// so publication must order the shape before the id (TSan checks that).
/// Every record on a published id counts; a record on an id not yet
/// published is dropped rather than landing in the slot it will own.
TEST(MetricsRegistry, HistogramsRegisteredWhileOthersRecordLoseNothing) {
  Registry& reg = Registry::global();
  constexpr int kThreads = 4;
  constexpr int kNew = 8;
  std::array<std::atomic<int>, kNew> ids{};
  ids[0].store(reg.histogram("t.metrics.live.0", 1.0, 1e3, 4),
               std::memory_order_relaxed);
  // No other histogram is registered in between, so the next one takes the
  // next id.  Recording on it now must be ignored.
  const int unpublished = ids[0].load(std::memory_order_relaxed) + 1;
  reg.record(unpublished, 2.0);
  const MetricsSnapshot before = reg.snapshot();

  std::atomic<int> published{1};  // ids[0, published) are registered
  std::atomic<bool> stop{false};
  std::vector<std::array<std::uint64_t, kNew>> counts(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto& mine = counts[static_cast<std::size_t>(t)];
      mine.fill(0);
      while (!stop.load(std::memory_order_relaxed)) {
        const int n = published.load(std::memory_order_acquire);
        for (int j = 0; j < n; ++j) {
          reg.record(ids[j].load(std::memory_order_relaxed), 1.0 + j);
          ++mine[static_cast<std::size_t>(j)];
        }
        // The id after the last one seen may or may not be published yet;
        // an underflow value keeps any record that lands out of the
        // interior counts checked below.
        if (n < kNew) {
          reg.record(ids[n - 1].load(std::memory_order_relaxed) + 1, 0.5);
        }
      }
    });
  }
  for (int j = 1; j < kNew; ++j) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const int id = reg.histogram("t.metrics.live." + std::to_string(j), 1.0,
                                 1e3, 4 + j);
    if (j == 1) {
      EXPECT_EQ(id, unpublished);
    }
    ids[j].store(id, std::memory_order_relaxed);
    published.store(j + 1, std::memory_order_release);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();

  // Histograms 1.. are absent from `before`, so the delta carries their
  // whole counts, which would include the record made before registration
  // had it landed.
  const MetricsSnapshot delta = reg.snapshot().delta_since(before);
  for (int j = 0; j < kNew; ++j) {
    std::uint64_t want = 0;
    for (const auto& mine : counts) want += mine[static_cast<std::size_t>(j)];
    const HistogramSnapshot* hs =
        find_hist(delta, "t.metrics.live." + std::to_string(j));
    ASSERT_NE(hs, nullptr) << j;
    const std::uint64_t interior = hs->count - hs->bins.front();
    EXPECT_EQ(interior, want) << "histogram " << j;
    EXPECT_GT(want, 0u) << "histogram " << j;
  }
}

TEST(MetricsRegistry, SnapshotRendersAsTableAndJson) {
  Registry& reg = Registry::global();
  const int c = reg.counter("t.metrics.render.counter");
  const int h = reg.histogram("t.metrics.render.hist", 1.0, 100.0, 8);
  const MetricsSnapshot before = reg.snapshot();
  reg.add(c, 7);
  for (double v : {2.0, 4.0, 8.0, 16.0, 32.0}) reg.record(h, v);
  const MetricsSnapshot delta = reg.snapshot().delta_since(before).without_zeros();

  const std::string table = delta.table();
  EXPECT_NE(table.find("t.metrics.render.counter"), std::string::npos);
  EXPECT_NE(table.find("t.metrics.render.hist"), std::string::npos);

  const std::string json = delta.to_json().str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

}  // namespace
