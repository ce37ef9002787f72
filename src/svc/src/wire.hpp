#pragma once

/// \file wire.hpp
/// Internal NDJSON wire-format helpers shared by the two front ends of the
/// query service: the synchronous Server (serve.cpp, stdin/pipe mode) and
/// the epoll EventLoopServer (server.cpp, socket mode).  One request line
/// parses to one Parsed; one Parsed renders to exactly one response line;
/// and one block executor (execute_block) runs a block of parsed lines for
/// both front ends, so a line takes the same path to its Session from
/// either.  Not installed — the stable surface is serve.hpp / server.hpp.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "rlc/base/status.hpp"
#include "rlc/scenario/spec.hpp"
#include "rlc/svc/query.hpp"
#include "rlc/svc/session.hpp"

namespace rlc::svc {
class ShardRouter;
}  // namespace rlc::svc

namespace rlc::svc::wire {

/// Echoed request id: absent, string, or number (other kinds are rejected
/// as malformed so a response can always be correlated unambiguously).
using RequestId = std::variant<std::monostate, std::string, double>;

/// One parsed request line, ready to execute.  kMetrics/kStats/kTrace are
/// the reserved admin ops — answered inline by the front end (never queued
/// behind solver work) from live registry/tracer/router state.
struct Parsed {
  enum class Op { kQuery, kScenario, kPing, kMetrics, kStats, kTrace, kError };
  Op op = Op::kError;
  RequestId id;
  QueryRequest query;
  scenario::ScenarioSpec spec;
  double deadline_seconds = Session::kNoDeadline;
  std::string format = "prometheus";  ///< kMetrics: prometheus | json | text
  std::string trace_action;           ///< kTrace: start | stop | dump
  bool chrome = false;  ///< kTrace dump: include the Chrome trace document
  rlc::Status error;  ///< op == kError: what was wrong with the line
};

/// Never throws; malformed input becomes op == kError with a typed Status.
Parsed parse_line(const std::string& line);

/// Render one response line (no trailing newline) into one reserved
/// buffer: the schema/version prefix, rendered once per process, then id,
/// status, code and the result members or the error message.
std::string render_ok(const RequestId& id, const io::Json& result);
std::string render_error(const RequestId& id, const rlc::Status& st);

/// A query's response line, whichever front end answered it: the result's
/// kept answer members written as they are, then its delivery members
/// (QueryResult::append_members), or the error.
std::string render_query(const RequestId& id,
                         const rlc::StatusOr<QueryResult>& r);

/// What the admin ops can see.  `session` is required (single-session
/// front end stats); `router` adds per-shard cache stats when serving
/// sharded; `server_block`, when set, contributes the event-loop server's
/// own counters (connections, bytes, queue depths) to the stats response.
struct AdminEnv {
  Session* session = nullptr;
  ShardRouter* router = nullptr;
  std::function<io::Json()> server_block;
};

/// Execute one admin op (kMetrics/kStats/kTrace) against live process
/// state and render the response line.  Cheap and lock-light by design —
/// front ends answer these inline on the I/O thread, like pings.
std::string execute_admin(const Parsed& p, const AdminEnv& env);

/// The per-line execution shared by both front ends: a query answers as a
/// batch of one through session.submit_batch, scenarios through
/// session.run_scenario, pings and admin ops inline, errors echo their
/// Status.  `threads` is what a ping reports (the serving concurrency,
/// which for a sharded server is not the session's own pool size).
std::string execute_and_render(Session& session, Parsed&& p,
                               std::size_t threads);

/// The block executor shared by both front ends — a stdin block, or what a
/// shard's dispatcher takes from its queue at once.  Lines run in input
/// order: each run of consecutive queries (at most max_batch, >= 1) is one
/// session.submit_batch with the lines' receive stamps (Tracer::now_ns;
/// a missing entry means unknown), and any other line runs on its own
/// between the queries before it and those after it, so a trace start
/// covers the queries that follow it and a scrape counts only those before
/// it.  One response line per input line, in input order.
std::vector<std::string> execute_block(
    Session& session, std::vector<Parsed>&& lines,
    const std::vector<std::int64_t>& received_ns, std::size_t max_batch,
    std::size_t threads);

}  // namespace rlc::svc::wire
