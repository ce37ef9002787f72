/// \file rlc_serve.cpp
/// NDJSON query server over rlc::svc — the serving front-end of the
/// redesigned public API.
///
/// Modes:
///   rlc_serve                      read request lines from stdin, write
///                                  one response line each to stdout
///   rlc_serve --socket PATH       serve a Unix socket with the epoll
///                                  event loop: many concurrent clients,
///                                  per-connection framing/backpressure,
///                                  --shards Session shards behind a
///                                  consistent-hash router, graceful drain
///                                  on SIGTERM/SIGINT
///   rlc_serve --bench [--json F]  synthetic cold-vs-warm throughput bench
///                                  writing the BENCH_serve.json artifact
///
/// Stdin batching is greedy but never adds latency: the first getline
/// blocks, then whatever further lines the stream already buffered (up to
/// --max-batch) join the same block, whose consecutive queries share one
/// submit_batch and whose other lines run at their place.  A lone
/// interactive request is answered immediately; a canned CI pipe is served
/// in parallel batches, with the same responses at any --max-batch.
///
/// Exit codes: 0 served/bench OK, 2 bad usage or setup failure.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "rlc/base/simd.hpp"
#include "rlc/base/status.hpp"
#include "rlc/base/version.hpp"
#include "rlc/exec/thread_pool.hpp"
#include "rlc/io/json.hpp"
#include "rlc/obs/exporter.hpp"
#include "rlc/obs/metrics.hpp"
#include "rlc/obs/trace.hpp"
#include "rlc/svc/serve.hpp"
#include "rlc/svc/server.hpp"
#include "rlc/svc/session.hpp"

#if defined(__linux__)
#include <csignal>
#define RLC_SERVE_HAVE_EVENT_LOOP 1
#else
#define RLC_SERVE_HAVE_EVENT_LOOP 0
#endif

namespace {

struct Args {
  std::size_t threads = 0;       // 0: default_thread_count()
  std::size_t shards = 1;        // Session shards behind the socket router
  std::size_t cache = 4096;      // result-cache entries
  int max_batch = 64;            // lines per submit_batch
  int backlog = 128;             // listen(2) backlog (socket mode)
  std::string socket_path;       // empty: stdin/stdout
  bool bench = false;
  bool quick = false;
  bool metrics = false;          // dump svc.* metrics to stderr on exit
  std::string json_path;         // --bench artifact destination
};

int usage(const char* argv0, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out,
               "usage: %s [options]\n"
               "  --threads N     pool size per session/shard (default: "
               "hardware / RLC_NUM_THREADS)\n"
               "  --shards N      session shards behind the socket router "
               "(default 1)\n"
               "  --cache N       result-cache capacity in entries "
               "(default 4096, 0 disables; per shard)\n"
               "  --max-batch N   request lines per block; its consecutive "
               "queries run as one parallel batch (default 64)\n"
               "  --socket PATH   serve a Unix socket (epoll event loop, "
               "many clients) instead of stdin\n"
               "  --backlog N     listen(2) backlog in socket mode "
               "(default 128)\n"
               "  --bench         run the cold-vs-warm throughput bench\n"
               "  --quick         smaller bench workload (CI)\n"
               "  --json FILE     write the bench artifact here "
               "(default BENCH_serve.json)\n"
               "  --metrics       print svc.* metrics to stderr on exit\n"
               "  --version       print the library version\n",
               argv0);
  return code;
}

bool parse_size(const char* text, std::size_t* out) {
  rlc::StatusOr<std::size_t> v = rlc::exec::parse_thread_count_strict(text);
  if (!v.is_ok()) return false;
  *out = *v;
  return true;
}

/// Echo the svc.* slice of the metrics registry to stderr (the shared
/// obs::Exporter text renderer — same formatting as rlc_run --metrics and
/// the admin {"op":"metrics","format":"text"} body).
void dump_metrics() {
  const rlc::obs::MetricsSnapshot snap =
      rlc::obs::Exporter::filter(rlc::obs::Registry::global().snapshot(),
                                 "svc.")
          .without_zeros();
  std::fputs(rlc::obs::Exporter::text(snap).c_str(), stderr);
}

// ---------------------------------------------------------------------------
// stdin/stdout transport

int serve_stdio(rlc::svc::Server& server, int max_batch) {
  // Unsynced iostreams give getline a real buffer, so in_avail() below can
  // see the rest of a piped workload (synced-with-stdio cin never buffers).
  std::ios::sync_with_stdio(false);
  std::string line;
  std::vector<std::string> block;
  while (std::getline(std::cin, line)) {
    block.push_back(line);
    // Greedy drain of already-buffered input: batches parallelize piped
    // workloads without delaying an interactive request.
    while (block.size() < static_cast<std::size_t>(max_batch) &&
           std::cin.rdbuf()->in_avail() > 0 && std::getline(std::cin, line)) {
      block.push_back(line);
    }
    for (const std::string& resp : server.handle_lines(block)) {
      std::fputs(resp.c_str(), stdout);
      std::fputc('\n', stdout);
    }
    std::fflush(stdout);
    block.clear();
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Unix-socket transport: the epoll event loop (rlc::svc::EventLoopServer)

#if RLC_SERVE_HAVE_EVENT_LOOP
rlc::svc::EventLoopServer* g_server = nullptr;

extern "C" void handle_drain_signal(int) {
  // request_drain is async-signal-safe (atomic store + eventfd write).
  if (g_server != nullptr) g_server->request_drain();
}

int serve_socket(const Args& args) {
  rlc::svc::ServerOptions sopts;
  sopts.shards = args.shards;
  sopts.threads_per_shard = args.threads;
  sopts.cache_capacity = args.cache;
  sopts.max_batch = args.max_batch;
  sopts.listen_backlog = args.backlog;
  rlc::svc::EventLoopServer server(sopts);

  if (rlc::Status st = server.listen_unix(args.socket_path); !st.is_ok()) {
    std::fprintf(stderr, "rlc_serve: %s\n", st.to_string().c_str());
    return 2;
  }

  // SIGTERM/SIGINT begin a graceful drain: in-flight requests complete and
  // flush before serve() returns.  A client that vanished mid-write must
  // not kill the process, so SIGPIPE is ignored (sends also pass
  // MSG_NOSIGNAL, but stdio writes do not).
  g_server = &server;
  struct sigaction sa{};
  sa.sa_handler = handle_drain_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  std::fprintf(stderr,
               "rlc_serve %s listening on %s (%zu shard%s, %zu threads)\n",
               rlc::version(), args.socket_path.c_str(),
               server.router().shards(),
               server.router().shards() == 1 ? "" : "s", server.threads());

  const rlc::Status st = server.serve();
  g_server = nullptr;
  const rlc::svc::EventLoopServer::Stats stats = server.stats();
  std::fprintf(stderr,
               "rlc_serve: drained (%llu conns, %llu requests, "
               "%llu responses, %llu backpressure pauses)\n",
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.responses),
               static_cast<unsigned long long>(stats.reads_paused));
  if (!st.is_ok()) {
    std::fprintf(stderr, "rlc_serve: %s\n", st.to_string().c_str());
    return 2;
  }
  return 0;
}
#endif

// ---------------------------------------------------------------------------
// Cold-vs-warm throughput bench

struct BenchPass {
  double seconds = 0.0;
  std::size_t requests = 0;
  double qps() const { return seconds > 0.0 ? requests / seconds : 0.0; }
};

BenchPass run_pass(rlc::svc::Session& session,
                   const std::vector<rlc::svc::QueryRequest>& reqs) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = session.submit_batch(reqs);
  BenchPass pass;
  pass.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const auto& r : results) {
    if (!r.is_ok()) {
      std::fprintf(stderr, "rlc_serve --bench: request failed: %s\n",
                   r.status().to_string().c_str());
      std::exit(2);
    }
  }
  pass.requests = reqs.size();
  return pass;
}

/// Warm passes repeat until they span this long (--quick: the shorter),
/// since one pass of cache hits takes well under a millisecond.
constexpr double kWarmSeconds = 1.0;
constexpr double kWarmSecondsQuick = 0.2;

/// Repeated warm passes, timed together, and their cache hit rate.
struct WarmRun {
  BenchPass pass;
  double hit_rate = 0.0;
};

WarmRun run_warm(rlc::svc::Session& session,
                 const std::vector<rlc::svc::QueryRequest>& reqs,
                 double span) {
  const auto before = session.cache_stats();
  WarmRun warm;
  while (warm.pass.seconds < span) {
    const BenchPass p = run_pass(session, reqs);
    warm.pass.seconds += p.seconds;
    warm.pass.requests += p.requests;
  }
  const auto after = session.cache_stats();
  const auto hits = after.hits - before.hits;
  const auto lookups = hits + after.misses - before.misses;
  warm.hit_rate = lookups > 0 ? static_cast<double>(hits) /
                                    static_cast<double>(lookups)
                              : 0.0;
  return warm;
}

int run_bench(const Args& args) {
  // Workload: both technologies swept over the paper's inductance range,
  // exact-waveform engine on (so the warm Talbot caches matter).
  const int points = args.quick ? 24 : 96;
  std::vector<rlc::svc::QueryRequest> reqs;
  for (const char* tech : {"250nm", "100nm"}) {
    for (int i = 0; i < points; ++i) {
      rlc::svc::QueryRequest q;
      q.technology = tech;
      q.l = 5.0e-6 * i / (points - 1);
      q.with_exact_delay = true;
      reqs.push_back(q);
    }
  }

  rlc::svc::SessionOptions serial_opts;
  serial_opts.threads = 1;
  serial_opts.cache_capacity = args.cache;
  rlc::svc::Session serial(serial_opts);
  const double warm_span = args.quick ? kWarmSecondsQuick : kWarmSeconds;
  const BenchPass t1_cold = run_pass(serial, reqs);
  const WarmRun t1 = run_warm(serial, reqs, warm_span);
  const BenchPass& t1_warm = t1.pass;

  rlc::svc::SessionOptions par_opts;
  par_opts.threads = args.threads;
  par_opts.cache_capacity = args.cache;
  rlc::svc::Session parallel(par_opts);
  if (parallel.threads() <= 1) {
    // parallel_speedup_cold can only reach ~1.0 here: the "parallel" pass
    // resolved to a single thread (1-core host, or RLC_NUM_THREADS=1).
    // Record the honest number rather than skipping the pass.
    std::fprintf(stderr,
                 "rlc_serve --bench: parallel pass resolved to 1 thread; "
                 "parallel_speedup_cold is bounded by 1.0 on this host\n");
  }
  const BenchPass tn_cold = run_pass(parallel, reqs);
  const BenchPass tn_warm = run_warm(parallel, reqs, warm_span).pass;
  const double warm_hit_rate = t1.hit_rate;

  std::printf("rlc_serve bench (%zu requests, warm passes over %.1f s, "
              "version %s)\n",
              reqs.size(), warm_span, rlc::version());
  std::printf("  threads=1  cold %8.1f q/s   warm %10.1f q/s   (x%.1f)\n",
              t1_cold.qps(), t1_warm.qps(),
              t1_warm.qps() / std::max(t1_cold.qps(), 1e-9));
  std::printf("  threads=%-2zu cold %8.1f q/s   warm %10.1f q/s   (x%.1f)\n",
              parallel.threads(), tn_cold.qps(), tn_warm.qps(),
              tn_warm.qps() / std::max(tn_cold.qps(), 1e-9));
  std::printf("  warm-pass cache hit rate %.3f\n", warm_hit_rate);

  rlc::io::Json j;
  j.set("schema", rlc::svc::kServeSchemaVersion);
  j.set("bench", "serve");
  j.set("version", rlc::version());
  j.set("simd", rlc::simd::active_level_name());
  j.set("quick", args.quick);
  j.set("threads", static_cast<long long>(parallel.threads()));
  j.set("requests", static_cast<long long>(reqs.size()));
  // The resolved parallel pool size: lets the validator distinguish "the
  // cold path failed to scale" from "this host has one core".
  j.set("parallel_threads", static_cast<long long>(parallel.threads()));
  rlc::io::Json m;
  m.set("t1_cold_qps", t1_cold.qps());
  m.set("t1_warm_qps", t1_warm.qps());
  m.set("tn_cold_qps", tn_cold.qps());
  m.set("tn_warm_qps", tn_warm.qps());
  m.set("warm_speedup_t1", t1_warm.qps() / std::max(t1_cold.qps(), 1e-9));
  m.set("parallel_speedup_cold",
        tn_cold.qps() / std::max(t1_cold.qps(), 1e-9));
  m.set("warm_cache_hit_rate", warm_hit_rate);
  j.set("metrics", m);
  const std::string path =
      args.json_path.empty() ? "BENCH_serve.json" : args.json_path;
  if (!rlc::io::write_json_file(path, j)) return 2;
  std::printf("  wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "rlc_serve: %s needs a value\n", flag);
        std::exit(usage(argv[0], 2));
      }
      return argv[++i];
    };
    if (a == "--help" || a == "-h") return usage(argv[0], 0);
    if (a == "--version") {
      std::printf("%s\n", rlc::version());
      return 0;
    }
    if (a == "--threads") {
      if (!parse_size(need_value("--threads"), &args.threads)) {
        std::fprintf(stderr, "rlc_serve: invalid --threads value\n");
        return 2;
      }
    } else if (a == "--shards") {
      char* end = nullptr;
      const long v = std::strtol(need_value("--shards"), &end, 10);
      if (!end || *end != '\0' || v < 1) {
        std::fprintf(stderr, "rlc_serve: invalid --shards value\n");
        return 2;
      }
      args.shards = static_cast<std::size_t>(v);
    } else if (a == "--backlog") {
      char* end = nullptr;
      const long v = std::strtol(need_value("--backlog"), &end, 10);
      if (!end || *end != '\0' || v < 1) {
        std::fprintf(stderr, "rlc_serve: invalid --backlog value\n");
        return 2;
      }
      args.backlog = static_cast<int>(v);
    } else if (a == "--cache") {
      char* end = nullptr;
      const long v = std::strtol(need_value("--cache"), &end, 10);
      if (!end || *end != '\0' || v < 0) {
        std::fprintf(stderr, "rlc_serve: invalid --cache value\n");
        return 2;
      }
      args.cache = static_cast<std::size_t>(v);
    } else if (a == "--max-batch") {
      char* end = nullptr;
      const long v = std::strtol(need_value("--max-batch"), &end, 10);
      if (!end || *end != '\0' || v < 1) {
        std::fprintf(stderr, "rlc_serve: invalid --max-batch value\n");
        return 2;
      }
      args.max_batch = static_cast<int>(v);
    } else if (a == "--socket") {
      args.socket_path = need_value("--socket");
    } else if (a == "--json") {
      args.json_path = need_value("--json");
    } else if (a == "--bench") {
      args.bench = true;
    } else if (a == "--quick") {
      args.quick = true;
    } else if (a == "--metrics") {
      args.metrics = true;
    } else {
      std::fprintf(stderr, "rlc_serve: unknown option %s\n", a.c_str());
      return usage(argv[0], 2);
    }
  }

  // RLC_NUM_THREADS must be well-formed for a serving process: fail loudly
  // instead of silently falling back to the hardware count.
  if (const rlc::StatusOr<std::size_t> env =
          rlc::exec::parse_thread_count_strict(std::getenv("RLC_NUM_THREADS"));
      !env.is_ok()) {
    std::fprintf(stderr, "rlc_serve: %s\n", env.status().to_string().c_str());
    return 2;
  }
  // Same contract for RLC_TRACE_RING: the admin trace op sizes its rings
  // from it, so a garbage value must not silently serve with the default.
  if (const rlc::StatusOr<std::size_t> ring =
          rlc::obs::Tracer::parse_ring_capacity_strict(
              std::getenv("RLC_TRACE_RING"));
      !ring.is_ok()) {
    std::fprintf(stderr, "rlc_serve: %s\n", ring.status().to_string().c_str());
    return 2;
  }

  if (args.bench) {
    const int rc = run_bench(args);
    if (args.metrics) dump_metrics();
    return rc;
  }

  int rc;
  if (!args.socket_path.empty()) {
#if RLC_SERVE_HAVE_EVENT_LOOP
    rc = serve_socket(args);
#else
    std::fprintf(stderr, "rlc_serve: socket mode needs the Linux epoll "
                         "event loop; use stdin mode\n");
    rc = 2;
#endif
  } else {
    rlc::svc::SessionOptions sopts;
    sopts.threads = args.threads;
    sopts.cache_capacity = args.cache;
    rlc::svc::Session session(sopts);
    rlc::svc::ServeOptions wopts;
    wopts.max_batch = args.max_batch;
    rlc::svc::Server server(session, wopts);
    rc = serve_stdio(server, args.max_batch);
  }
  if (args.metrics) dump_metrics();
  return rc;
}
