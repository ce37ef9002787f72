#include "wire.hpp"

#include <string>
#include <utility>
#include <vector>

#include "rlc/base/version.hpp"
#include "rlc/io/json.hpp"
#include "rlc/io/json_reader.hpp"
#include "rlc/obs/exporter.hpp"
#include "rlc/obs/metrics.hpp"
#include "rlc/obs/trace.hpp"
#include "rlc/svc/router.hpp"
#include "rlc/svc/serve.hpp"
#include "rlc/svc/slowlog.hpp"

namespace rlc::svc::wire {

namespace {

/// The bytes every response starts with, rendered once:
/// `{"schema": <kServeSchemaVersion>, "version": "<rlc::version()>"`.
const std::string& envelope_prefix() {
  static const std::string prefix = [] {
    io::Json j;
    j.set("schema", kServeSchemaVersion);
    j.set("version", rlc::version());
    return "{" + j.members();
  }();
  return prefix;
}

/// Room for what a response holds besides the prefix, its strings and its
/// answer members: the literal keys and values and up to seven numbers of
/// at most 24 characters.
constexpr std::size_t kFixedBytes = 320;

/// A response up to its status: the prefix and the id member, in a buffer
/// with room for the rest and `more` bytes of strings.  The members after
/// the prefix take io::Json's layout (", " between members, ": " after a
/// key), pinned against io::Json in tests/svc/test_wire.cpp.
std::string open_response(const RequestId& id, std::size_t more) {
  const std::string* sid = std::get_if<std::string>(&id);
  std::string out;
  out.reserve(envelope_prefix().size() + kFixedBytes +
              (sid != nullptr ? sid->size() : 0) + more);
  out += envelope_prefix();
  if (sid != nullptr) {
    out += ", \"id\": ";
    io::append_quoted(out, *sid);
  } else if (const double* d = std::get_if<double>(&id)) {
    out += ", \"id\": ";
    io::append_number(out, *d);
  }
  return out;
}

}  // namespace

std::string render_ok(const RequestId& id, const io::Json& result) {
  std::string out = open_response(id, result.members().size());
  out += ", \"status\": \"ok\", \"code\": 0, \"result\": {";
  out += result.members();
  out += "}}";
  return out;
}

std::string render_error(const RequestId& id, const rlc::Status& st) {
  std::string out = open_response(id, st.message().size());
  out += ", \"status\": ";
  io::append_quoted(out, st.code_name());
  out += ", \"code\": ";
  out += std::to_string(static_cast<int>(st.code()));
  out += ", \"message\": ";
  io::append_quoted(out, st.message());
  out += '}';
  return out;
}

std::string render_query(const RequestId& id,
                         const rlc::StatusOr<QueryResult>& r) {
  if (!r.is_ok()) return render_error(id, r.status());
  // A result rendered by Session carries its answer members; one built
  // elsewhere renders them in append_members, into a buffer that may grow.
  std::string out = open_response(
      id, (r->answer_members ? r->answer_members->size() : 0) +
              r->trace_id.size());
  out += ", \"status\": \"ok\", \"code\": 0, \"result\": {";
  r->append_members(out);
  out += "}}";
  return out;
}

Parsed parse_line(const std::string& line) {
  Parsed p;
  io::JsonValue v;
  try {
    v = io::parse_json(line);
  } catch (const std::exception& e) {
    p.error = rlc::Status::invalid_argument(
        std::string("malformed request line: ") + e.what());
    return p;
  }
  if (v.kind() != io::JsonValue::Kind::kObject) {
    p.error =
        rlc::Status::invalid_argument("request line must be a JSON object");
    return p;
  }
  if (const io::JsonValue* id = v.find("id")) {
    switch (id->kind()) {
      case io::JsonValue::Kind::kString:
        p.id = id->as_string();
        break;
      case io::JsonValue::Kind::kNumber:
        p.id = id->as_number();
        break;
      case io::JsonValue::Kind::kNull:
        break;
      default:
        p.error = rlc::Status::invalid_argument(
            "id must be a string or a number");
        return p;
    }
  }
  std::string op;
  if (std::string err; !io::take_string(v, "op", &op, &err)) {
    p.error = rlc::Status::invalid_argument(err);
    return p;
  }
  if (op == "ping") {
    p.op = Parsed::Op::kPing;
    return p;
  }
  if (op == "metrics") {
    std::string err;
    if (!io::take_string(v, "format", &p.format, &err)) {
      p.error = rlc::Status::invalid_argument(err);
      return p;
    }
    if (p.format != "prometheus" && p.format != "json" &&
        p.format != "text") {
      p.error = rlc::Status::invalid_argument(
          "metrics format \"" + p.format +
          "\" unknown (prometheus | json | text)");
      return p;
    }
    p.op = Parsed::Op::kMetrics;
    return p;
  }
  if (op == "stats") {
    p.op = Parsed::Op::kStats;
    return p;
  }
  if (op == "trace") {
    std::string err;
    if (!io::take_string(v, "action", &p.trace_action, &err) ||
        !io::take_bool(v, "chrome", &p.chrome, &err)) {
      p.error = rlc::Status::invalid_argument(err);
      return p;
    }
    if (p.trace_action != "start" && p.trace_action != "stop" &&
        p.trace_action != "dump") {
      p.error = rlc::Status::invalid_argument(
          p.trace_action.empty()
              ? std::string("trace request needs an \"action\" field "
                            "(start | stop | dump)")
              : "trace action \"" + p.trace_action +
                    "\" unknown (start | stop | dump)");
      return p;
    }
    p.op = Parsed::Op::kTrace;
    return p;
  }
  if (op == "query") {
    rlc::StatusOr<QueryRequest> req = QueryRequest::from_json(v);
    if (!req.is_ok()) {
      p.error = req.status();
      return p;
    }
    p.op = Parsed::Op::kQuery;
    p.query = std::move(*req);
    return p;
  }
  if (op == "scenario") {
    const io::JsonValue* spec = v.find("spec");
    if (!spec) {
      p.error = rlc::Status::invalid_argument(
          "scenario request needs a \"spec\" object");
      return p;
    }
    rlc::StatusOr<scenario::ScenarioSpec> parsed =
        scenario::ScenarioSpec::from_json(*spec);
    if (!parsed.is_ok()) {
      p.error = parsed.status();
      return p;
    }
    std::string err;
    if (!io::take_number(v, "deadline_seconds", &p.deadline_seconds, &err)) {
      p.error = rlc::Status::invalid_argument(err);
      return p;
    }
    p.op = Parsed::Op::kScenario;
    p.spec = std::move(*parsed);
    return p;
  }
  p.error = rlc::Status::invalid_argument(
      op.empty()
          ? std::string("request needs an \"op\" field")
          : "unknown op \"" + op +
                "\" (query | scenario | ping | metrics | stats | trace)");
  return p;
}

namespace {

io::Json cache_stats_json(const LruCache<QueryResult>::Stats& cs) {
  io::Json j;
  j.set("hits", static_cast<long long>(cs.hits));
  j.set("misses", static_cast<long long>(cs.misses));
  j.set("evictions", static_cast<long long>(cs.evictions));
  j.set("size", static_cast<long long>(cs.size));
  j.set("capacity", static_cast<long long>(cs.capacity));
  return j;
}

std::string render_metrics(const Parsed& p) {
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  io::Json result;
  result.set("format", p.format);
  if (p.format == "json") {
    result.set("metrics", obs::Exporter::json(snap));
  } else if (p.format == "text") {
    result.set("content_type", "text/plain");
    result.set("body", obs::Exporter::text(snap));
  } else {
    result.set("content_type", obs::Exporter::content_type());
    result.set("body", obs::Exporter::prometheus(snap));
  }
  return render_ok(p.id, result);
}

std::string render_stats(const Parsed& p, const AdminEnv& env) {
  io::Json result;
  if (env.server_block) result.set("server", env.server_block());
  io::JsonArray shards;
  if (env.router != nullptr) {
    for (std::size_t i = 0; i < env.router->shards(); ++i) {
      io::Json s;
      s.set("shard", static_cast<long long>(i));
      s.set("threads",
            static_cast<long long>(env.router->shard(i).threads()));
      s.set("cache", cache_stats_json(env.router->shard(i).cache_stats()));
      shards.push(s);
    }
  } else if (env.session != nullptr) {
    io::Json s;
    s.set("shard", 0);
    s.set("threads", static_cast<long long>(env.session->threads()));
    s.set("cache", cache_stats_json(env.session->cache_stats()));
    shards.push(s);
  }
  result.set("shards", shards);
  const obs::Tracer& tracer = obs::Tracer::global();
  io::Json trace;
  trace.set("enabled", obs::Tracer::enabled());
  trace.set("span_count", static_cast<long long>(tracer.span_count()));
  trace.set("dropped", static_cast<long long>(tracer.dropped()));
  trace.set("ring_capacity", static_cast<long long>(tracer.ring_capacity()));
  result.set("trace", trace);
  result.set("slow_queries", SlowQueryLog::global().to_json());
  return render_ok(p.id, result);
}

std::string render_trace(const Parsed& p) {
  obs::Tracer& tracer = obs::Tracer::global();
  io::Json result;
  if (p.trace_action == "start") {
    tracer.enable();
    result.set("tracing", true);
  } else if (p.trace_action == "stop") {
    tracer.disable();
    result.set("tracing", false);
  } else {  // dump
    result.set("tracing", obs::Tracer::enabled());
    result.set("rollup", tracer.rollup_json());
    if (p.chrome) result.set("chrome_trace", tracer.chrome_trace_json());
  }
  return render_ok(p.id, result);
}

}  // namespace

std::string execute_admin(const Parsed& p, const AdminEnv& env) {
  switch (p.op) {
    case Parsed::Op::kMetrics:
      return render_metrics(p);
    case Parsed::Op::kStats:
      return render_stats(p, env);
    case Parsed::Op::kTrace:
      return render_trace(p);
    default:
      return render_error(
          p.id, rlc::Status::internal("execute_admin on a non-admin op"));
  }
}

std::string execute_and_render(Session& session, Parsed&& p,
                               std::size_t threads) {
  switch (p.op) {
    case Parsed::Op::kPing: {
      io::Json pong;
      pong.set("pong", true);
      pong.set("threads", static_cast<long long>(threads));
      return render_ok(p.id, pong);
    }
    case Parsed::Op::kQuery: {
      std::vector<QueryRequest> one;
      one.push_back(std::move(p.query));
      return render_query(p.id, session.submit_batch(one).front());
    }
    case Parsed::Op::kScenario: {
      rlc::StatusOr<scenario::ScenarioResult> r =
          session.run_scenario(p.spec, p.deadline_seconds);
      return r.is_ok() ? render_ok(p.id, r->to_json())
                       : render_error(p.id, r.status());
    }
    case Parsed::Op::kMetrics:
    case Parsed::Op::kStats:
    case Parsed::Op::kTrace: {
      AdminEnv env;
      env.session = &session;
      return execute_admin(p, env);
    }
    case Parsed::Op::kError:
      break;
  }
  return render_error(p.id, p.error);
}

std::vector<std::string> execute_block(
    Session& session, std::vector<Parsed>&& lines,
    const std::vector<std::int64_t>& received_ns, std::size_t max_batch,
    std::size_t threads) {
  std::vector<std::string> out;
  out.reserve(lines.size());
  // The current run of consecutive queries: lines [first, first + size).
  std::size_t first = 0;
  std::vector<QueryRequest> reqs;
  std::vector<std::int64_t> stamps;
  const auto answer_run = [&] {
    if (reqs.empty()) return;
    const std::vector<rlc::StatusOr<QueryResult>> results =
        session.submit_batch(reqs, CancelToken{}, stamps);
    for (std::size_t j = 0; j < results.size(); ++j) {
      out.push_back(render_query(lines[first + j].id, results[j]));
    }
    reqs.clear();
    stamps.clear();
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    Parsed& p = lines[i];
    if (p.op == Parsed::Op::kQuery) {
      if (reqs.empty()) first = i;
      reqs.push_back(std::move(p.query));
      stamps.push_back(i < received_ns.size() ? received_ns[i] : 0);
      if (reqs.size() == max_batch) answer_run();
      continue;
    }
    answer_run();
    out.push_back(execute_and_render(session, std::move(p), threads));
  }
  answer_run();
  return out;
}

}  // namespace rlc::svc::wire
