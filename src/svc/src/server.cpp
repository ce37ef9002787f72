#include "rlc/svc/server.hpp"

#include <atomic>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rlc/obs/trace.hpp"
#include "wire.hpp"

#if defined(__linux__)

#include <condition_variable>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

namespace rlc::svc {

namespace {

// epoll_event.data.u64 tags.  Connection ids start above the sentinels.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kWakeTag = 1;
constexpr std::uint64_t kFirstConnId = 2;

rlc::Status errno_status(const char* what) {
  return rlc::Status::internal(std::string(what) + ": " +
                               std::strerror(errno));
}

}  // namespace

struct EventLoopServer::Impl {
  explicit Impl(const ServerOptions& o)
      : opts(o),
        router([&] {
          RouterOptions r;
          r.shards = o.shards;
          r.threads_per_shard = o.threads_per_shard;
          r.cache_capacity = o.cache_capacity;
          return r;
        }()) {
    if (opts.max_batch <= 0) opts.max_batch = 1;
    if (opts.listen_backlog <= 0) opts.listen_backlog = 1;
    if (opts.write_low_watermark > opts.write_high_watermark) {
      opts.write_low_watermark = opts.write_high_watermark;
    }
  }

  ~Impl() {
    if (listener_fd >= 0) ::close(listener_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
    const int wfd = wake_fd.load(std::memory_order_acquire);
    if (wfd >= 0) ::close(wfd);
  }

  // ---- state owned by the loop thread ----------------------------------

  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::string rbuf;          // unparsed request bytes
    std::string wbuf;          // rendered response bytes not yet sent
    std::size_t woff = 0;      // bytes of wbuf already sent
    std::uint64_t next_seq = 0;    // sequence for the next parsed request
    std::uint64_t next_flush = 0;  // sequence the client must see next
    std::map<std::uint64_t, std::string> ready;  // out-of-order completions
    std::size_t inflight = 0;  // requests dispatched, completion pending
    std::uint32_t events = EPOLLIN;  // current epoll interest set
    bool reads_paused = false;       // backpressure engaged
    bool read_closed = false;        // EOF seen (client half-closed)
    bool closing = false;            // close once drained + flushed
  };

  ServerOptions opts;
  ShardRouter router;

  int epoll_fd = -1;
  int listener_fd = -1;
  // Atomic: written by the loop thread at serve() setup, read by
  // request_drain() from any thread (including a signal handler).
  std::atomic<int> wake_fd{-1};
  bool listener_open = false;
  bool draining = false;

  std::uint64_t next_conn_id = kFirstConnId;
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::size_t scenario_rr = 0;  // round-robin shard for scenario requests

  // ---- loop <-> dispatcher plumbing ------------------------------------

  struct ShardTask {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::int64_t received_ns = 0;  ///< Tracer::now_ns at framing time
    wire::Parsed parsed;
  };

  struct ShardQueue {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<ShardTask> tasks;
    bool stop = false;
  };

  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t seq = 0;
    std::string line;
  };

  std::vector<std::unique_ptr<ShardQueue>> queues;
  std::vector<std::thread> dispatchers;

  std::mutex comp_mu;
  std::vector<Completion> completions;

  std::atomic<bool> drain_requested{false};

  std::atomic<std::uint64_t> st_accepted{0};
  std::atomic<std::uint64_t> st_closed{0};
  std::atomic<std::uint64_t> st_requests{0};
  std::atomic<std::uint64_t> st_responses{0};
  std::atomic<std::uint64_t> st_paused{0};
  std::atomic<std::uint64_t> st_oversized{0};
  std::atomic<std::uint64_t> st_bytes_in{0};
  std::atomic<std::uint64_t> st_bytes_out{0};

  // ---- setup -----------------------------------------------------------

  rlc::Status listen_unix(const std::string& path) {
    if (listener_fd >= 0) {
      return rlc::Status::invalid_argument("listen_unix called twice");
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
      return rlc::Status::invalid_argument("socket path empty or too long: " +
                                           path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) return errno_status("socket");
    ::unlink(path.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
        0) {
      rlc::Status st = errno_status(("bind " + path).c_str());
      ::close(fd);
      return st;
    }
    if (::listen(fd, opts.listen_backlog) < 0) {
      rlc::Status st = errno_status("listen");
      ::close(fd);
      return st;
    }
    listener_fd = fd;
    return rlc::Status::ok();
  }

  void request_drain() noexcept {
    // Async-signal-safe: one relaxed store + one write(2).
    drain_requested.store(true, std::memory_order_relaxed);
    // Acquire pairs with the release store in serve(): it publishes the
    // eventfd's creation to this thread before the write(2) below.
    const int wfd = wake_fd.load(std::memory_order_acquire);
    if (wfd >= 0) {
      const std::uint64_t one = 1;
      [[maybe_unused]] ssize_t n = ::write(wfd, &one, sizeof(one));
    }
  }

  // ---- dispatcher threads ----------------------------------------------

  void dispatcher_main(std::size_t shard_idx) {
    ShardQueue& q = *queues[shard_idx];
    Session& session = router.shard(shard_idx);
    const std::size_t max_batch = static_cast<std::size_t>(opts.max_batch);
    std::vector<ShardTask> taken;
    for (;;) {
      taken.clear();
      {
        std::unique_lock<std::mutex> lk(q.mu);
        q.cv.wait(lk, [&] { return q.stop || !q.tasks.empty(); });
        if (q.tasks.empty()) return;  // stop && drained
        while (!q.tasks.empty() && taken.size() < max_batch) {
          taken.push_back(std::move(q.tasks.front()));
          q.tasks.pop_front();
        }
      }

      // The take runs in input order through the same block executor as a
      // stdin block: consecutive queries as one batch on the shard's pool,
      // anything else (scenarios, and errors routed here defensively) on
      // its own.
      std::vector<wire::Parsed> lines;
      std::vector<std::int64_t> received;
      lines.reserve(taken.size());
      received.reserve(taken.size());
      for (ShardTask& t : taken) {
        lines.push_back(std::move(t.parsed));
        received.push_back(t.received_ns);
      }
      std::vector<std::string> responses = wire::execute_block(
          session, std::move(lines), received, max_batch, router.threads());
      {
        std::lock_guard<std::mutex> lk(comp_mu);
        for (std::size_t i = 0; i < taken.size(); ++i) {
          completions.push_back(
              {taken[i].conn_id, taken[i].seq, std::move(responses[i])});
        }
      }
      const std::uint64_t one = 1;
      [[maybe_unused]] ssize_t n = ::write(
          wake_fd.load(std::memory_order_acquire), &one, sizeof(one));
    }
  }

  // ---- loop-thread helpers ---------------------------------------------

  void epoll_set(Conn& c, std::uint32_t events) {
    if (c.events == events) return;
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = c.id;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
    c.events = events;
  }

  void destroy_conn(std::uint64_t id) {
    auto it = conns.find(id);
    if (it == conns.end()) return;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, it->second->fd, nullptr);
    ::close(it->second->fd);
    conns.erase(it);
    st_closed.fetch_add(1, std::memory_order_relaxed);
  }

  void close_listener() {
    if (!listener_open) return;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listener_fd, nullptr);
    ::close(listener_fd);
    listener_fd = -1;
    listener_open = false;
  }

  /// Everything owed to this client has been delivered (or will never
  /// arrive): no in-flight requests, no buffered responses.
  bool conn_drained(const Conn& c) const {
    return c.inflight == 0 && c.ready.empty() && c.woff >= c.wbuf.size();
  }

  void maybe_close(Conn& c) {
    if (c.closing && conn_drained(c)) destroy_conn(c.id);
  }

  void enqueue_response(Conn& c, std::string line) {
    line.push_back('\n');
    c.wbuf += line;
    st_responses.fetch_add(1, std::memory_order_relaxed);
  }

  /// Move in-order completions from the reorder map into the write buffer.
  void flush_ready(Conn& c) {
    auto it = c.ready.begin();
    while (it != c.ready.end() && it->first == c.next_flush) {
      enqueue_response(c, std::move(it->second));
      it = c.ready.erase(it);
      ++c.next_flush;
    }
  }

  /// Write as much of wbuf as the socket accepts; manage EPOLLOUT and the
  /// backpressure read-resume.  Returns false if the connection died.
  bool pump_writes(Conn& c) {
    while (c.woff < c.wbuf.size()) {
      ssize_t n = ::send(c.fd, c.wbuf.data() + c.woff, c.wbuf.size() - c.woff,
                         MSG_NOSIGNAL);
      if (n > 0) {
        c.woff += static_cast<std::size_t>(n);
        st_bytes_out.fetch_add(static_cast<std::uint64_t>(n),
                               std::memory_order_relaxed);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      destroy_conn(c.id);  // EPIPE / ECONNRESET: client is gone
      return false;
    }
    if (c.woff >= c.wbuf.size()) {
      c.wbuf.clear();
      c.woff = 0;
    } else if (c.woff > (std::size_t{1} << 20)) {
      c.wbuf.erase(0, c.woff);  // keep the buffer from growing unbounded
      c.woff = 0;
    }

    const std::size_t pending = c.wbuf.size() - c.woff;
    std::uint32_t want = 0;
    if (pending > 0) want |= EPOLLOUT;
    if (c.reads_paused && pending < opts.write_low_watermark &&
        !c.read_closed && !draining) {
      c.reads_paused = false;
    }
    if (!c.reads_paused && !c.read_closed && !draining && !c.closing) {
      want |= EPOLLIN;
    }
    epoll_set(c, want);
    const std::uint64_t id = c.id;  // maybe_close may free the Conn
    maybe_close(c);
    return conns.count(id) != 0;
  }

  /// Live event-loop counters for the admin stats op.  Runs on the loop
  /// thread (handle_line), so conns is safe to read; shard queue depths
  /// take each queue's mutex briefly.
  io::Json server_stats_json() {
    io::Json j;
    j.set("connections_accepted",
          static_cast<long long>(st_accepted.load(std::memory_order_relaxed)));
    j.set("connections_closed",
          static_cast<long long>(st_closed.load(std::memory_order_relaxed)));
    j.set("connections_open", static_cast<long long>(conns.size()));
    j.set("requests",
          static_cast<long long>(st_requests.load(std::memory_order_relaxed)));
    j.set("responses", static_cast<long long>(
                           st_responses.load(std::memory_order_relaxed)));
    j.set("reads_paused",
          static_cast<long long>(st_paused.load(std::memory_order_relaxed)));
    j.set("oversized_lines", static_cast<long long>(
                                 st_oversized.load(std::memory_order_relaxed)));
    j.set("bytes_in",
          static_cast<long long>(st_bytes_in.load(std::memory_order_relaxed)));
    j.set("bytes_out",
          static_cast<long long>(st_bytes_out.load(std::memory_order_relaxed)));
    io::JsonArray depths;
    for (auto& q : queues) {
      std::lock_guard<std::mutex> lk(q->mu);
      depths.push(static_cast<long long>(q->tasks.size()));
    }
    j.set("shard_queue_depths", depths);
    return j;
  }

  /// Parse + route one complete request line on connection `c`.
  void handle_line(Conn& c, const std::string& line) {
    st_requests.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t received_ns = obs::Tracer::now_ns();
    wire::Parsed p = wire::parse_line(line);
    const std::uint64_t seq = c.next_seq++;
    if (p.op == wire::Parsed::Op::kPing || p.op == wire::Parsed::Op::kError) {
      // Cheap: answer inline on the loop thread, preserving order through
      // the same sequencing path as dispatched requests.
      c.ready[seq] = wire::execute_and_render(router.shard(0), std::move(p),
                                              router.threads());
      return;
    }
    if (p.op == wire::Parsed::Op::kMetrics ||
        p.op == wire::Parsed::Op::kStats ||
        p.op == wire::Parsed::Op::kTrace) {
      // Admin introspection answers inline too: a scrape must observe the
      // live server, not wait in line behind the solver queues.
      wire::AdminEnv env;
      env.session = &router.shard(0);
      env.router = &router;
      env.server_block = [this] { return server_stats_json(); };
      c.ready[seq] = wire::execute_admin(p, env);
      return;
    }
    std::size_t shard_idx;
    if (p.op == wire::Parsed::Op::kQuery) {
      shard_idx = router.shard_of(p.query);
    } else {
      shard_idx = scenario_rr++ % router.shards();
    }
    ++c.inflight;
    ShardQueue& q = *queues[shard_idx];
    {
      std::lock_guard<std::mutex> lk(q.mu);
      q.tasks.push_back(ShardTask{c.id, seq, received_ns, std::move(p)});
    }
    q.cv.notify_one();
  }

  /// Split complete lines off rbuf and handle each.  `final_tail` treats an
  /// unterminated remainder as the last request (half-close semantics, same
  /// as getline on the stdin front end).
  void consume_rbuf(Conn& c, bool final_tail) {
    std::size_t start = 0;
    for (;;) {
      std::size_t nl = c.rbuf.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = c.rbuf.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) handle_line(c, line);
    }
    c.rbuf.erase(0, start);
    if (final_tail && !c.rbuf.empty()) {
      std::string line = std::move(c.rbuf);
      c.rbuf.clear();
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) handle_line(c, line);
    }
    if (!final_tail && c.rbuf.size() > opts.max_line_bytes) {
      st_oversized.fetch_add(1, std::memory_order_relaxed);
      c.rbuf.clear();
      const std::uint64_t seq = c.next_seq++;
      c.ready[seq] = wire::render_error(
          wire::RequestId{},
          rlc::Status::invalid_argument("request line exceeds max_line_bytes"));
      c.closing = true;  // framing is lost; answer, flush, close
    }
  }

  void handle_readable(Conn& c) {
    char buf[64 * 1024];
    for (;;) {
      ssize_t n = ::read(c.fd, buf, sizeof(buf));
      if (n > 0) {
        c.rbuf.append(buf, static_cast<std::size_t>(n));
        st_bytes_in.fetch_add(static_cast<std::uint64_t>(n),
                              std::memory_order_relaxed);
        if (c.rbuf.size() > opts.max_line_bytes &&
            c.rbuf.find('\n') == std::string::npos) {
          break;  // oversized: stop reading, consume_rbuf rejects it
        }
        continue;
      }
      if (n == 0) {
        // EOF.  The client may have half-closed (shutdown(SHUT_WR)) and
        // still be reading: serve everything buffered, including an
        // unterminated trailing line, then close once drained.
        c.read_closed = true;
        c.closing = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      destroy_conn(c.id);  // hard error mid-stream: drop the connection
      return;
    }
    consume_rbuf(c, /*final_tail=*/c.read_closed);
    flush_ready(c);
    if (!c.reads_paused && !c.read_closed &&
        c.wbuf.size() - c.woff > opts.write_high_watermark) {
      c.reads_paused = true;
      st_paused.fetch_add(1, std::memory_order_relaxed);
    }
    pump_writes(c);
  }

  void handle_acceptable() {
    for (;;) {
      int fd = ::accept4(listener_fd, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN, or a transient per-connection error: keep serving
      }
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->id = next_conn_id++;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = conn->id;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
        ::close(fd);
        continue;
      }
      st_accepted.fetch_add(1, std::memory_order_relaxed);
      conns.emplace(conn->id, std::move(conn));
    }
  }

  void drain_completions() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lk(comp_mu);
      batch.swap(completions);
    }
    for (Completion& done : batch) {
      auto it = conns.find(done.conn_id);
      if (it == conns.end()) continue;  // client vanished mid-request
      Conn& c = *it->second;
      c.ready[done.seq] = std::move(done.line);
      if (c.inflight > 0) --c.inflight;
      flush_ready(c);
      pump_writes(c);
    }
  }

  void begin_drain() {
    if (draining) return;
    draining = true;
    close_listener();
    // Stop reading everywhere; whatever is already parsed or in flight
    // completes and flushes.  Unparsed partial lines are dropped — the
    // client never finished sending them.
    std::vector<std::uint64_t> ids;
    ids.reserve(conns.size());
    for (auto& [id, c] : conns) ids.push_back(id);
    for (std::uint64_t id : ids) {
      auto it = conns.find(id);
      if (it == conns.end()) continue;
      Conn& c = *it->second;
      c.closing = true;
      pump_writes(c);  // may destroy the conn; hence the id snapshot
    }
    for (auto& q : queues) {
      {
        std::lock_guard<std::mutex> lk(q->mu);
        q->stop = true;
      }
      q->cv.notify_all();
    }
  }

  // ---- the loop --------------------------------------------------------

  rlc::Status serve() {
    if (listener_fd < 0) {
      return rlc::Status::invalid_argument("serve() before listen_unix()");
    }
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd < 0) return errno_status("epoll_create1");
    const int wfd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wfd < 0) return errno_status("eventfd");
    wake_fd.store(wfd, std::memory_order_release);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerTag;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, listener_fd, &ev) < 0) {
      return errno_status("epoll_ctl(listener)");
    }
    listener_open = true;
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wfd, &ev) < 0) {
      return errno_status("epoll_ctl(wake)");
    }

    queues.clear();
    for (std::size_t i = 0; i < router.shards(); ++i) {
      queues.push_back(std::make_unique<ShardQueue>());
    }
    dispatchers.reserve(router.shards());
    for (std::size_t i = 0; i < router.shards(); ++i) {
      dispatchers.emplace_back([this, i] { dispatcher_main(i); });
    }

    constexpr int kTickMs = 200;  // belt-and-braces drain poll
    std::vector<epoll_event> events(64);
    for (;;) {
      int n = ::epoll_wait(epoll_fd, events.data(),
                           static_cast<int>(events.size()), kTickMs);
      if (n < 0) {
        if (errno == EINTR) continue;
        begin_drain();
        for (std::thread& t : dispatchers) t.join();
        return errno_status("epoll_wait");
      }
      for (int i = 0; i < n; ++i) {
        const std::uint64_t tag = events[i].data.u64;
        if (tag == kListenerTag) {
          if (!draining) handle_acceptable();
          continue;
        }
        if (tag == kWakeTag) {
          std::uint64_t count = 0;
          while (::read(wfd, &count, sizeof(count)) > 0) {
          }
          continue;  // completions + drain flag handled below
        }
        auto it = conns.find(tag);
        if (it == conns.end()) continue;  // closed earlier this wakeup
        Conn& c = *it->second;
        if (events[i].events & (EPOLLERR | EPOLLHUP)) {
          // EPOLLHUP means both directions are gone (a half-close raises
          // only EPOLLRDHUP/EPOLLIN); nothing can be delivered anymore.
          destroy_conn(tag);
          continue;
        }
        if (events[i].events & EPOLLIN) {
          handle_readable(c);
          if (conns.find(tag) == conns.end()) continue;
        }
        if (events[i].events & EPOLLOUT) pump_writes(c);
      }

      drain_completions();
      if (drain_requested.load(std::memory_order_relaxed)) begin_drain();
      if (draining) {
        // Close every fully-served connection; exit once none remain.
        std::vector<std::uint64_t> ids;
        ids.reserve(conns.size());
        for (auto& [id, c] : conns) ids.push_back(id);
        for (std::uint64_t id : ids) {
          auto it = conns.find(id);
          if (it != conns.end()) maybe_close(*it->second);
        }
        if (conns.empty()) break;
      }
    }

    for (std::thread& t : dispatchers) t.join();
    dispatchers.clear();
    return rlc::Status::ok();
  }
};

EventLoopServer::EventLoopServer(const ServerOptions& opts)
    : impl_(std::make_unique<Impl>(opts)) {}

EventLoopServer::~EventLoopServer() = default;

rlc::Status EventLoopServer::listen_unix(const std::string& path) {
  return impl_->listen_unix(path);
}

rlc::Status EventLoopServer::serve() { return impl_->serve(); }

void EventLoopServer::request_drain() noexcept { impl_->request_drain(); }

ShardRouter& EventLoopServer::router() { return impl_->router; }
const ShardRouter& EventLoopServer::router() const { return impl_->router; }

std::size_t EventLoopServer::threads() const { return impl_->router.threads(); }

EventLoopServer::Stats EventLoopServer::stats() const {
  Stats s;
  s.connections_accepted =
      impl_->st_accepted.load(std::memory_order_relaxed);
  s.connections_closed = impl_->st_closed.load(std::memory_order_relaxed);
  // Gauge: closed is incremented after accepted, so a racy read can
  // transiently see closed > accepted — clamp instead of wrapping.
  s.connections_open = s.connections_accepted >= s.connections_closed
                           ? s.connections_accepted - s.connections_closed
                           : 0;
  s.requests = impl_->st_requests.load(std::memory_order_relaxed);
  s.responses = impl_->st_responses.load(std::memory_order_relaxed);
  s.reads_paused = impl_->st_paused.load(std::memory_order_relaxed);
  s.oversized_lines = impl_->st_oversized.load(std::memory_order_relaxed);
  s.bytes_in = impl_->st_bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = impl_->st_bytes_out.load(std::memory_order_relaxed);
  return s;
}

}  // namespace rlc::svc

#else  // !__linux__

namespace rlc::svc {

struct EventLoopServer::Impl {
  explicit Impl(const ServerOptions& o) : router([&] {
    RouterOptions r;
    r.shards = o.shards;
    r.threads_per_shard = o.threads_per_shard;
    r.cache_capacity = o.cache_capacity;
    return r;
  }()) {}
  ShardRouter router;
};

EventLoopServer::EventLoopServer(const ServerOptions& opts)
    : impl_(std::make_unique<Impl>(opts)) {}
EventLoopServer::~EventLoopServer() = default;

rlc::Status EventLoopServer::listen_unix(const std::string&) {
  return rlc::Status::internal("EventLoopServer requires Linux (epoll)");
}
rlc::Status EventLoopServer::serve() {
  return rlc::Status::internal("EventLoopServer requires Linux (epoll)");
}
void EventLoopServer::request_drain() noexcept {}
ShardRouter& EventLoopServer::router() { return impl_->router; }
const ShardRouter& EventLoopServer::router() const { return impl_->router; }
std::size_t EventLoopServer::threads() const { return impl_->router.threads(); }
EventLoopServer::Stats EventLoopServer::stats() const { return {}; }

}  // namespace rlc::svc

#endif
