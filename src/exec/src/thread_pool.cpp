#include "rlc/exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>

#include "rlc/base/cancel.hpp"
#include "rlc/obs/metrics.hpp"
#include "rlc/obs/trace.hpp"

namespace rlc::exec {

namespace {

/// Pool instrumentation ids, interned once.  queue_depth is a level gauge
/// (pending parallel loops right now); busy_ns accumulates worker+caller
/// time spent inside run_chunks, i.e. actual chunk execution.
struct PoolMetrics {
  int queue_depth;
  int queue_depth_max;
  int loops;
  int busy_ns;
  static const PoolMetrics& get() {
    static const PoolMetrics m{
        obs::Registry::global().gauge("exec.pool.queue_depth"),
        obs::Registry::global().gauge("exec.pool.queue_depth_max"),
        obs::Registry::global().counter("exec.pool.loops"),
        obs::Registry::global().counter("exec.pool.busy_ns")};
    return m;
  }
};

}  // namespace

rlc::StatusOr<std::size_t> parse_thread_count_strict(const char* text) {
  if (!text) return std::size_t{0};  // unset: hardware count
  const auto reject = [&](const std::string& why) {
    return rlc::Status::invalid_argument("thread count \"" +
                                         std::string(text) + "\" " + why);
  };
  if (*text == '\0') return reject("is empty");
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') return reject("is not an integer");
  if (errno == ERANGE) return reject("overflows");
  if (v <= 0) return reject("must be >= 1");
  if (static_cast<unsigned long>(v) > kMaxThreadCount) {
    return reject("exceeds the " + std::to_string(kMaxThreadCount) +
                  "-thread limit");
  }
  return static_cast<std::size_t>(v);
}

std::size_t default_thread_count() {
  const rlc::StatusOr<std::size_t> parsed =
      parse_thread_count_strict(std::getenv("RLC_NUM_THREADS"));
  if (parsed.value_or(0) > 0) return *parsed;
  if (!parsed.is_ok()) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "rlc::exec: RLC_NUM_THREADS: %s; using hardware "
                   "concurrency\n",
                   parsed.status().message().c_str());
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<std::size_t>(hw) : 1;
}

/// One parallel_for invocation.  Chunks are claimed by atomic increment of
/// `next`; completion is accounted in `remaining` under `done_mutex` so the
/// caller can sleep on `done_cv`.  Held by shared_ptr from both the caller
/// and the pool's pending list, so a worker that observes the loop after the
/// caller returned only sees an exhausted index range, never freed memory.
struct ThreadPool::Loop {
  std::size_t n = 0;
  std::size_t grain = 1;
  rlc::ExecState scope{};  ///< submitter's cancel/deadline scope (see below)
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t remaining = 0;  // guarded by done_mutex
  std::exception_ptr error;   // guarded by done_mutex
};

ThreadPool::ThreadPool(std::size_t n_threads) {
  size_ = n_threads > 0 ? n_threads : default_thread_count();
  workers_.reserve(size_ - 1);
  for (std::size_t i = 0; i + 1 < size_; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_main() {
  for (;;) {
    std::shared_ptr<Loop> loop;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      wake_.wait(lk, [&] { return shutdown_ || !pending_.empty(); });
      if (pending_.empty()) return;  // shutdown with nothing left to help
      loop = pending_.front();
      if (loop->next.load(std::memory_order_relaxed) >= loop->n) {
        // Exhausted loop the caller has not reaped yet; drop it and retry.
        pending_.erase(pending_.begin());
        obs::Registry::global().gauge_add(PoolMetrics::get().queue_depth, -1);
        continue;
      }
    }
    run_chunks(*loop);
  }
}

void ThreadPool::run_chunks(Loop& loop) {
  RLC_TRACE_SPAN("pool_run_chunks");
  const std::int64_t t0 = obs::Tracer::now_ns();
  struct BusyScope {
    std::int64_t t0;
    ~BusyScope() {
      obs::Registry::global().add(PoolMetrics::get().busy_ns,
                                  obs::Tracer::now_ns() - t0);
    }
  } busy{t0};
  // Inherit the submitting thread's cancellation/deadline scope so a solve
  // fanned over the pool stays cancellable: rlc::checkpoint() inside fn sees
  // the same {token, deadline} a serial run would.  Unarmed (the common,
  // non-serving case) this installs nothing and costs nothing.
  std::optional<rlc::ExecScope> scope;
  if (loop.scope.armed()) scope.emplace(loop.scope);
  const std::size_t n = loop.n;
  const std::size_t grain = loop.grain;
  for (;;) {
    const std::size_t begin = loop.next.fetch_add(grain, std::memory_order_relaxed);
    if (begin >= n) return;
    const std::size_t end = std::min(begin + grain, n);
    if (!loop.stop.load(std::memory_order_acquire)) {
      try {
        for (std::size_t i = begin;
             i < end && !loop.stop.load(std::memory_order_relaxed); ++i) {
          (*loop.fn)(i);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lk(loop.done_mutex);
        if (!loop.error) loop.error = std::current_exception();
        loop.stop.store(true, std::memory_order_release);
      }
    }
    std::lock_guard<std::mutex> lk(loop.done_mutex);
    loop.remaining -= end - begin;
    if (loop.remaining == 0) loop.done_cv.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  if (n == 0) return;
  RLC_TRACE_SPAN("parallel_for");
  // Counted before the inline shortcut, so the count is the same for every
  // pool size.
  auto& reg = obs::Registry::global();
  const PoolMetrics& pm = PoolMetrics::get();
  reg.add(pm.loops);
  if (size_ == 1 || n == 1) {
    // Exactly the serial loop: same order, same exception behaviour.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  if (grain == 0) grain = std::max<std::size_t>(1, n / (4 * size_));
  auto loop = std::make_shared<Loop>();
  loop->n = n;
  loop->grain = grain;
  loop->scope = rlc::current_exec_state();
  loop->fn = &fn;
  loop->remaining = n;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    pending_.push_back(loop);
    reg.gauge_add(pm.queue_depth, 1);
    reg.gauge_max(pm.queue_depth_max,
                  static_cast<std::int64_t>(pending_.size()));
  }
  wake_.notify_all();
  run_chunks(*loop);
  {
    std::unique_lock<std::mutex> lk(loop->done_mutex);
    loop->done_cv.wait(lk, [&] { return loop->remaining == 0; });
  }
  {
    std::lock_guard<std::mutex> lk(mutex_);
    const auto new_end =
        std::remove(pending_.begin(), pending_.end(), loop);
    // A worker may have already dropped the exhausted loop (and adjusted
    // the gauge); only account for entries removed here.
    reg.gauge_add(pm.queue_depth,
                  -static_cast<std::int64_t>(
                      std::distance(new_end, pending_.end())));
    pending_.erase(new_end, pending_.end());
  }
  if (loop->error) std::rethrow_exception(loop->error);
}

ThreadPool& default_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace rlc::exec
