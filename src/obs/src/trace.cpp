#include "rlc/obs/trace.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>

#include "rlc/io/json.hpp"

namespace rlc::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

namespace {

/// One captured span.  Fields are written exactly once by the owning
/// thread before the ring's count is release-published past this slot, so
/// relaxed atomics on the fields plus acquire on the count make the
/// concurrent drain race-free (and TSan-clean).
struct Slot {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::int64_t> start_ns{0};
  std::atomic<std::int64_t> dur_ns{0};
  std::atomic<std::uint32_t> depth{0};
};

struct Ring {
  Ring(int tid_in, std::size_t capacity) : slots(capacity), tid(tid_in) {}

  std::vector<Slot> slots;
  std::atomic<std::uint32_t> count{0};
  std::atomic<std::uint64_t> dropped{0};
  int tid = 0;

  void push(const char* name, std::int64_t start_ns, std::int64_t dur_ns,
            std::uint32_t depth) noexcept {
    const std::uint32_t idx = count.load(std::memory_order_relaxed);
    if (idx >= slots.size()) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Slot& s = slots[idx];
    s.name.store(name, std::memory_order_relaxed);
    s.start_ns.store(start_ns, std::memory_order_relaxed);
    s.dur_ns.store(dur_ns, std::memory_order_relaxed);
    s.depth.store(depth, std::memory_order_relaxed);
    count.store(idx + 1, std::memory_order_release);
  }
};

struct ThreadState {
  Ring* ring = nullptr;        // owned by the tracer, never freed
  std::uint32_t depth = 0;     // current span nesting on this thread
  std::uint64_t armed_at = 0;  // tracer epoch generation the ring is valid for
};

thread_local ThreadState t_state;

}  // namespace

struct Tracer::Impl {
  mutable std::mutex mu;     // ring list + epoch bookkeeping
  std::vector<Ring*> rings;  // one per thread that ever recorded; kept for
                             // export after the thread exits (never freed —
                             // the tracer itself is immortal)
  std::int64_t epoch_ns = 0;
  std::atomic<std::uint64_t> generation{0};  // bumped by enable()/clear()
  int next_tid = 1;
  std::size_t ring_cap = Tracer::kRingCapacity;  // resolved once in the ctor

  Ring& local_ring() {
    const std::uint64_t gen = generation.load(std::memory_order_acquire);
    if (t_state.ring == nullptr) {
      auto* r = new Ring(0, ring_cap);
      std::lock_guard<std::mutex> lk(mu);
      r->tid = next_tid++;
      rings.push_back(r);
      t_state.ring = r;
      t_state.armed_at = gen;
    } else if (t_state.armed_at != gen) {
      // enable()/clear() re-armed the rings since this thread last looked;
      // our cached write cursor is already reset (enable zeroed count).
      t_state.armed_at = gen;
    }
    return *t_state.ring;
  }
};

Tracer::Tracer() : impl_(new Impl) {
  const char* env = std::getenv("RLC_TRACE_RING");
  auto parsed = parse_ring_capacity_strict(env);
  if (!parsed.is_ok()) {
    // Library fallback only: the CLI drivers validate RLC_TRACE_RING at
    // startup and exit before the tracer is ever constructed.
    std::fprintf(stderr, "rlc::obs: %s; using the default ring (%zu)\n",
                 parsed.status().message().c_str(), kRingCapacity);
  } else if (parsed.value() > 0) {
    impl_->ring_cap = parsed.value();
  }
}

Tracer::~Tracer() { delete impl_; }

Tracer& Tracer::global() {
  // Never destroyed: guards may outlive main()'s statics on pool threads.
  static Tracer* t = new Tracer;
  return *t;
}

rlc::StatusOr<std::size_t> Tracer::parse_ring_capacity_strict(
    const char* text) {
  if (!text) return std::size_t{0};  // unset: default capacity
  const auto reject = [&](const std::string& why) {
    return rlc::Status::invalid_argument("RLC_TRACE_RING \"" +
                                         std::string(text) + "\" " + why);
  };
  if (*text == '\0') return reject("is empty");
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') return reject("is not an integer");
  if (errno == ERANGE) return reject("overflows");
  if (v <= 0) return reject("must be >= 1");
  if (static_cast<unsigned long>(v) > kMaxRingCapacity) {
    return reject("exceeds the " + std::to_string(kMaxRingCapacity) +
                  "-span limit");
  }
  return static_cast<std::size_t>(v);
}

std::size_t Tracer::ring_capacity() const { return impl_->ring_cap; }

std::int64_t Tracer::now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::enable() noexcept {
  std::lock_guard<std::mutex> lk(impl_->mu);
  for (Ring* r : impl_->rings) {
    r->count.store(0, std::memory_order_relaxed);
    r->dropped.store(0, std::memory_order_relaxed);
  }
  impl_->epoch_ns = now_ns();
  impl_->generation.fetch_add(1, std::memory_order_release);
  detail::g_trace_enabled.store(true, std::memory_order_release);
}

void Tracer::disable() noexcept {
  detail::g_trace_enabled.store(false, std::memory_order_release);
}

void Tracer::clear() noexcept {
  std::lock_guard<std::mutex> lk(impl_->mu);
  for (Ring* r : impl_->rings) {
    r->count.store(0, std::memory_order_relaxed);
    r->dropped.store(0, std::memory_order_relaxed);
  }
  impl_->generation.fetch_add(1, std::memory_order_release);
}

void SpanGuard::begin(const char* name) noexcept {
  name_ = name;
  depth_ = t_state.depth++;
  start_ns_ = Tracer::now_ns();
}

void SpanGuard::end() noexcept {
  const std::int64_t stop_ns = Tracer::now_ns();
  if (t_state.depth > 0) --t_state.depth;
  // Record even if tracing was disabled mid-span: the slot is already
  // paid for and the exporter reads a consistent count either way.
  Tracer::global().impl_->local_ring().push(name_, start_ns_,
                                            stop_ns - start_ns_, depth_);
}

std::vector<Tracer::SpanStats> Tracer::rollup() const {
  std::map<std::string, SpanStats> by_name;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    for (const Ring* r : impl_->rings) {
      const std::uint32_t n = std::min<std::uint32_t>(
          r->count.load(std::memory_order_acquire),
          static_cast<std::uint32_t>(r->slots.size()));
      for (std::uint32_t i = 0; i < n; ++i) {
        const Slot& s = r->slots[i];
        const char* name = s.name.load(std::memory_order_relaxed);
        if (name == nullptr) continue;
        SpanStats& st = by_name[name];
        st.name = name;
        st.count += 1;
        const std::int64_t dur = s.dur_ns.load(std::memory_order_relaxed);
        st.total_ns += dur;
        if (s.depth.load(std::memory_order_relaxed) == 0) {
          st.top_level_ns += dur;
        }
      }
    }
  }
  std::vector<SpanStats> out;
  out.reserve(by_name.size());
  for (auto& [name, st] : by_name) out.push_back(std::move(st));
  std::sort(out.begin(), out.end(), [](const SpanStats& a,
                                       const SpanStats& b) {
    return a.total_ns != b.total_ns ? a.total_ns > b.total_ns
                                    : a.name < b.name;
  });
  return out;
}

io::Json Tracer::rollup_json() const {
  // Members in name order: a by-time order would move with the timings.
  std::vector<SpanStats> by_name = rollup();
  std::sort(by_name.begin(), by_name.end(),
            [](const SpanStats& a, const SpanStats& b) {
              return a.name < b.name;
            });
  io::Json spans;
  for (const SpanStats& st : by_name) {
    io::Json s;
    s.set("count", static_cast<long long>(st.count));
    s.set("total_ns", static_cast<long long>(st.total_ns));
    s.set("top_level_ns", static_cast<long long>(st.top_level_ns));
    spans.set(st.name, s);
  }
  io::Json j;
  j.set("spans", spans);
  j.set("dropped", static_cast<long long>(dropped()));
  return j;
}

io::Json Tracer::chrome_trace_json() const {
  io::JsonArray events;
  std::lock_guard<std::mutex> lk(impl_->mu);
  for (const Ring* r : impl_->rings) {
    io::Json meta;
    meta.set("ph", "M");
    meta.set("pid", 1);
    meta.set("tid", r->tid);
    meta.set("name", "thread_name");
    io::Json args;
    args.set("name", r->tid == 1 ? std::string("main")
                                 : "worker-" + std::to_string(r->tid - 1));
    meta.set("args", args);
    events.push(meta);

    const std::uint32_t n = std::min<std::uint32_t>(
        r->count.load(std::memory_order_acquire),
        static_cast<std::uint32_t>(r->slots.size()));
    for (std::uint32_t i = 0; i < n; ++i) {
      const Slot& s = r->slots[i];
      const char* name = s.name.load(std::memory_order_relaxed);
      if (name == nullptr) continue;
      io::Json e;
      e.set("name", name);
      e.set("cat", "rlc");
      e.set("ph", "X");
      e.set("ts", static_cast<double>(s.start_ns.load(
                      std::memory_order_relaxed) -
                  impl_->epoch_ns) /
                      1e3);
      e.set("dur",
            static_cast<double>(s.dur_ns.load(std::memory_order_relaxed)) /
                1e3);
      e.set("pid", 1);
      e.set("tid", r->tid);
      events.push(e);
    }
  }
  std::uint64_t lost = 0;
  for (const Ring* r : impl_->rings) {
    lost += r->dropped.load(std::memory_order_relaxed);
  }
  io::Json doc;
  doc.set("traceEvents", events);
  doc.set("displayTimeUnit", "ms");
  io::Json other;
  other.set("tool", "rlc_run");
  other.set("dropped_spans", static_cast<long long>(lost));
  doc.set("otherData", other);
  return doc;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  return io::write_json_file(path, chrome_trace_json());
}

std::uint64_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  std::uint64_t total = 0;
  for (const Ring* r : impl_->rings) {
    total += std::min<std::uint32_t>(
        r->count.load(std::memory_order_acquire),
        static_cast<std::uint32_t>(r->slots.size()));
  }
  return total;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  std::uint64_t total = 0;
  for (const Ring* r : impl_->rings) {
    total += r->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace rlc::obs
