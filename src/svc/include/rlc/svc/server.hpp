#pragma once

/// \file server.hpp
/// EventLoopServer — the async multi-client serving front end of the query
/// service: a single-threaded epoll event loop (nonblocking accept / read /
/// write, per-connection NDJSON framing buffers) in front of the shards of
/// a ShardRouter, each answered by its own dispatcher thread on the shard's
/// warm pool.
///
/// Concurrency model:
///   * the LOOP THREAD owns every connection: framing, response ordering,
///     write buffering, backpressure.  It never solves anything — cheap ops
///     (ping, malformed lines, admin ops) are answered inline; a query is
///     queued on the shard ShardRouter::shard_of places it on, a scenario
///     on the next shard in turn;
///   * one DISPATCHER THREAD per shard takes up to max_batch tasks from
///     that shard's queue at once and runs the take through the same block
///     executor as a stdin block (serve.hpp), in input order: consecutive
///     queries as one Session::submit_batch on the shard's own ThreadPool
///     (so a burst from one client still parallelizes, and distinct keys
///     fan out across shards), anything else on its own;
///   * completions travel back over a mutex-guarded queue + eventfd wakeup;
///     the loop thread re-sequences them per connection, so every client
///     sees its responses in ITS request order no matter which shard or
///     thread answered (pinned by tests/svc/test_server.cpp).
///
/// Robustness contract (the fault-injection suite pins each point):
///   * partial reads/writes at any byte boundary are normal operation;
///   * a slow or stalled client never blocks the loop or other clients;
///   * a client whose responses back up past write_high_watermark stops
///     being read (backpressure) until its buffer drains below
///     write_low_watermark — memory stays bounded per connection;
///   * half-close (shutdown(SHUT_WR)) serves every buffered line, plus an
///     unterminated trailing line, before the server closes its side;
///   * request_drain() (async-signal-safe; wire it to SIGTERM) stops
///     accepting and reading, completes every in-flight request, flushes,
///     then returns from serve().
///
/// Platform: the event loop is Linux-only (epoll + eventfd).  On other
/// platforms listen_unix()/serve() return an internal error and the stdin
/// front end (serve.hpp) remains available.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "rlc/base/status.hpp"
#include "rlc/svc/router.hpp"

namespace rlc::svc {

struct ServerOptions {
  /// Session shards behind the router (>= 1; 0 is promoted to 1).
  std::size_t shards = 1;
  /// Worker threads per shard pool; 0 picks exec::default_thread_count().
  std::size_t threads_per_shard = 0;
  /// Result-cache capacity per shard in entries; 0 disables caching.
  std::size_t cache_capacity = 4096;
  /// Max tasks a shard's dispatcher takes from its queue at once.
  int max_batch = 64;
  /// listen(2) backlog (the old transport hardcoded 8, which drops
  /// connection bursts on the floor).
  int listen_backlog = 128;
  /// Pause reading a connection whose pending response bytes exceed this.
  std::size_t write_high_watermark = std::size_t{4} << 20;
  /// Resume reading once the pending response bytes fall below this.
  std::size_t write_low_watermark = std::size_t{512} << 10;
  /// A request line longer than this is answered with invalid_argument and
  /// the connection is closed (framing can no longer be trusted).
  std::size_t max_line_bytes = std::size_t{1} << 20;
};

class EventLoopServer {
 public:
  explicit EventLoopServer(const ServerOptions& opts = {});
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  /// Bind + listen on a Unix-domain socket path (an existing socket file at
  /// `path` is replaced).  Call once, before serve().
  rlc::Status listen_unix(const std::string& path);

  /// Run the event loop on the calling thread.  Returns OK after a
  /// request_drain() completed (all in-flight requests answered, buffers
  /// flushed, connections closed), or an error if setup failed.
  rlc::Status serve();

  /// Begin graceful drain: stop accepting and reading, finish in-flight
  /// work, flush, make serve() return.  Async-signal-safe (one eventfd
  /// write) — safe to call from a SIGTERM handler or any thread.  Idempotent.
  void request_drain() noexcept;

  /// The shard router (sessions stay warm for the server's lifetime).
  ShardRouter& router();
  const ShardRouter& router() const;

  /// Serving concurrency reported by ping: sum of shard pool sizes.
  std::size_t threads() const;

  /// Counters readable from any thread while serving.  All fields are
  /// monotonic except connections_open, which is a level gauge
  /// (accepted - closed at the moment of the read).
  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t connections_open = 0;  ///< gauge: currently connected
    std::uint64_t requests = 0;          ///< lines parsed into requests
    std::uint64_t responses = 0;         ///< response lines fully written
    std::uint64_t reads_paused = 0;      ///< backpressure engagements
    std::uint64_t oversized_lines = 0;   ///< lines over max_line_bytes
    std::uint64_t bytes_in = 0;          ///< request bytes read off sockets
    std::uint64_t bytes_out = 0;         ///< response bytes written
  };
  Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rlc::svc
