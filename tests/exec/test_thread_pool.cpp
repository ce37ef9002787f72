/// rlc::exec unit tests: pool sizing (including the RLC_NUM_THREADS
/// override and its parser), exact coverage and ordering of parallel_for /
/// parallel_map, exception propagation and nested loops.  This suite is
/// the one CI runs under ThreadSanitizer.

#include "rlc/exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "rlc/obs/metrics.hpp"

namespace {

using rlc::exec::ThreadPool;

/// Scoped setenv/unsetenv so env-sensitive tests cannot leak state.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(ThreadPool, DefaultThreadCountHonorsEnvOverride) {
  {
    ScopedEnv env("RLC_NUM_THREADS", "3");
    EXPECT_EQ(rlc::exec::default_thread_count(), 3u);
    const ThreadPool pool;  // default-constructed pools pick it up too
    EXPECT_EQ(pool.size(), 3u);
  }
  {
    ScopedEnv env("RLC_NUM_THREADS", "1");
    EXPECT_EQ(rlc::exec::default_thread_count(), 1u);
  }
  // Garbage and non-positive values fall back to hardware concurrency.
  for (const char* bad : {"0", "-4", "abc", "2x", ""}) {
    ScopedEnv env("RLC_NUM_THREADS", bad);
    EXPECT_GE(rlc::exec::default_thread_count(), 1u) << bad;
    EXPECT_NE(rlc::exec::default_thread_count(), 0u) << bad;
  }
}

TEST(ThreadPool, ParseThreadCountAcceptsPositiveIntegers) {
  for (const auto& [text, want] :
       {std::pair<const char*, std::size_t>{"1", 1}, {"4", 4}, {"  16", 16},
        {"4096", 4096}}) {
    const auto got = rlc::exec::parse_thread_count_strict(text);
    ASSERT_TRUE(got.is_ok()) << text << ": " << got.status().to_string();
    EXPECT_EQ(*got, want) << text;
  }
}

TEST(ThreadPool, ParseThreadCountRejectsMalformedInputWithWarning) {
  // Each malformed value is an invalid_argument whose message quotes it
  // (default_thread_count prints that message once and falls back).
  const char* bad[] = {"0",    "-3",   "abc", "4abc", "",
                       "1e3",  " ",    "+",   "4097",
                       "99999999999999999999"};  // ERANGE overflow
  for (const char* text : bad) {
    const auto got = rlc::exec::parse_thread_count_strict(text);
    ASSERT_FALSE(got.is_ok()) << text;
    EXPECT_EQ(got.status().code(), rlc::StatusCode::kInvalidArgument) << text;
    EXPECT_NE(got.status().message().find('"' + std::string(text) + '"'),
              std::string::npos)
        << got.status().message();
  }
}

TEST(ThreadPool, ParseThreadCountNullIsSilentDefault) {
  const auto got = rlc::exec::parse_thread_count_strict(nullptr);
  ASSERT_TRUE(got.is_ok());  // unset env is not an error
  EXPECT_EQ(*got, 0u);       // 0: use the hardware count
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 3u, 7u}) {
    ThreadPool pool(threads);
    ASSERT_EQ(pool.size(), threads);
    const std::size_t n = 997;  // prime, so chunks never divide evenly
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads " << threads << " index " << i;
    }
  }
}

TEST(ThreadPool, ParallelForHandlesEdgeShapes) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n == 1 runs inline on the caller.
  std::atomic<int> one{0};
  pool.parallel_for(1, [&](std::size_t i) { one += static_cast<int>(i) + 1; });
  EXPECT_EQ(one.load(), 1);
  // Grain far larger than n still covers everything.
  std::vector<std::atomic<int>> hits(5);
  pool.parallel_for(
      5, [&](std::size_t i) { hits[i].fetch_add(1); }, /*grain=*/1000);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// exec.pool.loops is one of the deterministic counts the quick-run gate
// holds, so it must not depend on the pool size: a one-thread pool and a
// one-index loop run inline and still count.
TEST(ThreadPool, EveryNonEmptyLoopCountsWhateverThePoolSize) {
  auto& reg = rlc::obs::Registry::global();
  const auto loops = [&reg] {
    for (const auto& [name, value] : reg.snapshot().counters) {
      if (name == "exec.pool.loops") return value;
    }
    return std::int64_t{0};
  };
  for (const std::size_t threads : {1u, 3u}) {
    ThreadPool pool(threads);
    const std::int64_t before = loops();
    pool.parallel_for(0, [](std::size_t) {});
    pool.parallel_for(1, [](std::size_t) {});
    pool.parallel_for(5, [](std::size_t) {});
    EXPECT_EQ(loops() - before, 2) << "threads " << threads;
  }
}

TEST(ThreadPool, ParallelMapIsOrderedAndDeterministic) {
  std::vector<int> items(512);
  std::iota(items.begin(), items.end(), 0);
  const auto expect = [&] {
    std::vector<long> out;
    for (int v : items) out.push_back(3L * v + 1);
    return out;
  }();
  for (const std::size_t threads : {1u, 2u, 5u}) {
    ThreadPool pool(threads);
    const auto got = rlc::exec::parallel_map(
        pool, items, [](const int& v) { return 3L * v + 1; });
    EXPECT_EQ(got, expect) << "threads " << threads;
  }
}

TEST(ThreadPool, FirstExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  const auto boom = [](std::size_t i) {
    if (i == 137) throw std::runtime_error("boom at 137");
  };
  EXPECT_THROW(pool.parallel_for(1000, boom), std::runtime_error);
  // The pool must remain fully usable after a failed loop.
  std::atomic<long> sum{0};
  pool.parallel_for(100, [&](std::size_t i) {
    sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 99L * 100L / 2L);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<long> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(16, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

}  // namespace
