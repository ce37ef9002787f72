#pragma once

/// \file serve.hpp
/// Transport-agnostic NDJSON request framing over a Session.  bench/
/// rlc_serve plugs this into stdin/stdout; tests drive it directly with
/// strings.  A block of lines runs through the same block executor as a
/// socket shard's take (server.hpp), so a line takes one path to its
/// Session from either front end.
///
/// Wire format (one JSON object per line, one response line per request
/// line, always in input order):
///
///   request:  {"op": "query" | "scenario" | "ping",
///              "id": <number | string, optional, echoed back>,
///              ... op-specific fields ...}
///     query:    the QueryRequest fields (technology, l, threshold, ...)
///     scenario: {"spec": {...ScenarioSpec...}, "deadline_seconds": s?}
///     ping:     no extra fields
///
///   response: {"schema": kServeSchemaVersion, "version": rlc::version(),
///              "id": ...?, "status": "<code name>", "code": <int>,
///              "result": {...}}        on success
///             {..., "message": "..."}  on error (no "result")
///
/// Malformed lines (bad JSON, missing/unknown op) get an invalid_argument
/// response line — the stream stays aligned, one line in, one line out.

#include <string>
#include <vector>

#include "rlc/svc/session.hpp"

namespace rlc::svc {

/// Response-envelope schema version (independent of the BENCH_*.json
/// scenario envelope schema).  History: 1 initial.
inline constexpr int kServeSchemaVersion = 1;

struct ServeOptions {
  /// Max consecutive query lines executed as one submit_batch by
  /// handle_lines.
  int max_batch = 64;
};

class Server {
 public:
  explicit Server(Session& session, const ServeOptions& opts = {});

  /// One request line -> one response line (no trailing newline); a query
  /// answers as a batch of one.  Never throws; protocol errors become
  /// error responses.
  std::string handle_line(const std::string& line);

  /// A block of lines -> responses in input order, each line run at its
  /// place: a run of consecutive "query" lines is answered through ONE
  /// submit_batch (sharded over the session pool, at most max_batch per
  /// call), and any other op runs on its own between the queries before it
  /// and those after it.
  std::vector<std::string> handle_lines(const std::vector<std::string>& lines);

  Session& session() { return session_; }

 private:
  Session& session_;
  ServeOptions opts_;
};

}  // namespace rlc::svc
