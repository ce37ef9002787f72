#pragma once

/// \file thread_pool.hpp
/// Fixed-size thread pool and data-parallel loops for the independent
/// tasks of this library: exact-delay sweeps (one exact solve per task),
/// Pareto fronts (one power solve per repeater size), scenario grids,
/// batched service queries and randomized test trials.  Warm-started
/// l-sweeps of the (h, k) optimizer are not among them: each point starts
/// from the previous optimum, so they run serially.
///
/// Design constraints, in order:
///   * determinism — parallel_for / parallel_map produce results identical
///     to the serial loop and in input order, for any thread count;
///   * no oversubscription — one pool, sized once from the hardware (or the
///     RLC_NUM_THREADS override), shared by default across all callers;
///   * simplicity — a single mutex-protected task queue, no work stealing;
///     tasks are coarse (a whole solve each), so queue contention is
///     negligible against solve cost.
///
/// The calling thread participates in the loop: a pool of size n spawns
/// n - 1 workers, so size 1 means "run inline, spawn nothing" and the
/// serial semantics are exact by construction.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "rlc/base/status.hpp"

namespace rlc::exec {

/// Upper bound accepted from RLC_NUM_THREADS: values above this are treated
/// as configuration errors rather than an instruction to spawn thousands of
/// threads.
inline constexpr std::size_t kMaxThreadCount = 4096;

/// Parse an RLC_NUM_THREADS-style value (also rlc_run --threads and
/// rlc_serve --threads): null means "use the hardware count" (returns 0);
/// a positive integer in [1, kMaxThreadCount] is returned as-is; empty,
/// zero, negative, non-numeric, trailing-garbage and overflowing values
/// get an invalid_argument Status naming the value.
rlc::StatusOr<std::size_t> parse_thread_count_strict(const char* text);

/// Thread count used by default-constructed pools: the RLC_NUM_THREADS
/// environment variable when parse_thread_count_strict accepts a positive
/// integer, otherwise std::thread::hardware_concurrency() (minimum 1).  A
/// rejected value is reported once on stderr before the fallback.
std::size_t default_thread_count();

class ThreadPool {
 public:
  /// n_threads = 0 picks default_thread_count().  The pool spawns
  /// n_threads - 1 workers; the caller of parallel_for is the n-th.
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency of a loop run on this pool (workers + caller).
  std::size_t size() const noexcept { return size_; }

  /// Run fn(i) for every i in [0, n).  Blocks until all iterations finish.
  /// Iterations are distributed in contiguous chunks of `grain` indices
  /// (0 picks a chunk size that yields ~4 chunks per thread).  The first
  /// exception thrown by fn is rethrown here after the loop drains; later
  /// iterations that have not started are skipped.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 0);

 private:
  struct Loop;
  void worker_main();
  void run_chunks(Loop& loop);

  std::size_t size_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<std::shared_ptr<Loop>> pending_;  // loops with unclaimed chunks
  bool shutdown_ = false;
};

/// The process-wide pool used when callers do not provide one.  Constructed
/// on first use with default_thread_count() threads.
ThreadPool& default_pool();

/// Apply fn to every element of items on `pool`, returning results in input
/// order (result type must be default-constructible).  Deterministic: the
/// output is identical to a serial std::transform for any thread count.
template <typename T, typename F>
auto parallel_map(ThreadPool& pool, const std::vector<T>& items, F&& fn)
    -> std::vector<decltype(fn(std::declval<const T&>()))> {
  std::vector<decltype(fn(std::declval<const T&>()))> out(items.size());
  pool.parallel_for(items.size(),
                    [&](std::size_t i) { out[i] = fn(items[i]); });
  return out;
}

/// parallel_map on the shared default pool.
template <typename T, typename F>
auto parallel_map(const std::vector<T>& items, F&& fn)
    -> std::vector<decltype(fn(std::declval<const T&>()))> {
  return parallel_map(default_pool(), items, std::forward<F>(fn));
}

}  // namespace rlc::exec
