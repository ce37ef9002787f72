// query_cold and query_hot: NDJSON sizing queries through the synchronous
// front end svc::Server over one single-threaded svc::Session.
//
// query_cold sends distinct keys, so every request misses the result cache
// and runs the (h, k) solve.  query_hot replays a key set far below the
// cache capacity after set-up has filled the cache, so every timed request
// is a hit and the solver never runs.

#include <algorithm>
#include <climits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "rlc/core/exact_delay.hpp"
#include "rlc/core/optimize_api.hpp"
#include "rlc/io/json_reader.hpp"
#include "rlc/scenario/spec.hpp"
#include "rlc/svc/serve.hpp"
#include "rlc/svc/session.hpp"
#include "rlc/tline/coupled_line.hpp"

namespace pb {
namespace {

using rlc::svc::QueryRequest;
using rlc::svc::QueryResult;

/// Ops of the counting phase, and how many timed responses the gate keeps.
constexpr long kCountOps = 120;
constexpr std::size_t kGateResponses = 120;
/// Ops cap of the traced phase, which bounds the span file.
constexpr long kMaxTracedOps = 20000;

QueryRequest parse_request(const std::string& line) {
  const rlc::io::JsonValue v = rlc::io::parse_json(line);
  rlc::StatusOr<QueryRequest> r = QueryRequest::from_json(v);
  if (!r.is_ok()) throw std::runtime_error("bad request: " + line);
  return *r;
}

rlc::svc::SessionOptions session_options() {
  rlc::svc::SessionOptions o;  // default cache capacity
  o.threads = 1;               // parallel_for runs inline
  return o;
}

bool response_ok(const std::string& resp) {
  return resp.find("\"status\": \"ok\"") != std::string::npos;  // io::Json layout
}

/// The "result" object of a response line, or nullopt on a non-ok status.
std::optional<rlc::io::JsonValue> response_result(const std::string& resp) {
  const rlc::io::JsonValue v = rlc::io::parse_json(resp);
  const rlc::io::JsonValue* st = v.find("status");
  const rlc::io::JsonValue* res = v.find("result");
  if (!st || st->as_string() != "ok" || !res) return std::nullopt;
  return *res;
}

/// Member-by-member equality of two result objects, numbers bitwise,
/// ignoring the delivery fields from_cache and wall_seconds.  Returns the
/// first differing key, or "" when equal.
std::string first_difference(const rlc::io::JsonValue& a,
                             const rlc::io::JsonValue& b) {
  const auto skip = [](const std::string& k) {
    return k == "from_cache" || k == "wall_seconds";
  };
  std::size_t na = 0, nb = 0;
  for (const auto& [k, va] : a.members()) {
    if (skip(k)) continue;
    ++na;
    const rlc::io::JsonValue* vb = b.find(k);
    if (!vb || vb->kind() != va.kind()) return k;
    switch (va.kind()) {
      case rlc::io::JsonValue::Kind::kNumber:
        if (va.as_number() != vb->as_number()) return k;
        break;
      case rlc::io::JsonValue::Kind::kString:
        if (va.as_string() != vb->as_string()) return k;
        break;
      case rlc::io::JsonValue::Kind::kBool:
        if (va.as_bool() != vb->as_bool()) return k;
        break;
      default:
        break;
    }
  }
  for (const auto& [k, vb] : b.members()) {
    if (!skip(k)) ++nb;
  }
  return na == nb ? "" : "<member count>";
}

/// The core request the service builds for a query (svc/session.cpp).
rlc::core::OptimizeRequest to_optimize_request(const QueryRequest& q) {
  rlc::core::OptimizeRequest o;
  o.objective = q.objective == "power" ? rlc::core::Objective::kPower
                                       : rlc::core::Objective::kDelay;
  o.l = q.l;
  o.conductors = static_cast<std::size_t>(q.n_conductors);
  o.coupling_cc = q.coupling_cc;
  o.coupling_km = q.coupling_km;
  o.constraints.noise_vmax = q.noise_vmax;
  if (o.objective == rlc::core::Objective::kPower) {
    o.constraints.delay_slack_eps = q.delay_slack_eps;
  }
  o.optim.f = q.threshold;
  o.optim.max_iterations = q.max_iterations;
  o.optim.residual_tolerance = q.residual_tolerance;
  return o;
}

rlc::core::ExactOptions exact_options(const QueryRequest& q) {
  rlc::core::ExactOptions eo;
  eo.talbot_points = q.talbot_points;
  eo.window_points = q.talbot_points;
  return eo;
}

/// The answer computed straight from core::optimize (plus the exact engine
/// for with_exact_delay), rendered through QueryResult::to_json so it can be
/// compared with the served answer bit for bit.
std::optional<rlc::io::JsonValue> core_answer(const QueryRequest& q) {
  const rlc::core::Technology tech = rlc::scenario::technology_by_name(q.technology);
  const auto resp = rlc::core::optimize(tech, to_optimize_request(q));
  if (!resp.is_ok()) return std::nullopt;
  const rlc::core::OptimResult& s = resp->sizing;
  QueryResult r;
  r.h = s.h;
  r.k = s.k;
  r.tau = s.tau;
  r.delay_per_length = s.delay_per_length;
  r.newton_iterations = s.newton_iterations;
  r.method = s.method == rlc::core::OptimMethod::kNewton ? "newton" : "nelder_mead";
  if (resp->has_power) {
    r.power_total = resp->power.total();
    r.power_dynamic = resp->power.dynamic;
    r.power_short_circuit = resp->power.short_circuit;
    r.power_leakage = resp->power.leakage;
    r.delay_ref = resp->delay_ref;
    r.power_ref = resp->power_ref;
    r.power_constraint_active = resp->delay_constraint_active;
    r.has_power = true;
  }
  if (resp->has_noise) {
    r.peak_noise = resp->peak_noise;
    r.noise_width = resp->noise_width;
    r.constraint_active = resp->noise_constraint_active;
    r.has_noise = true;
  }
  if (q.line_length > 0.0) r.total_delay = r.delay_per_length * q.line_length;
  if (q.with_exact_delay) {
    const auto exact = rlc::core::exact_threshold_delay(
        tech, q.l, s.h, s.k, s.tau, q.threshold, exact_options(q), nullptr);
    if (!exact) return std::nullopt;
    r.exact_delay = *exact;
    r.has_exact = true;
  }
  return rlc::io::parse_json(r.to_json().str());
}

/// Power answers must meet delay <= (1 + eps) T_opt.
bool power_slack_met(const QueryRequest& q, const rlc::io::JsonValue& res) {
  if (q.objective != "power") return true;
  const double dpl = res.number_or("delay_per_length", 0.0);
  const double ref = res.number_or("delay_ref", 0.0);
  return ref > 0.0 && dpl <= (1.0 + q.delay_slack_eps) * ref * (1.0 + 1e-12);
}

/// Length of a response with the digits of its wall_seconds value removed:
/// the only part of an answer whose width changes from run to run.
double stable_bytes(const std::string& resp) {
  const std::string key = "\"wall_seconds\":";
  const std::size_t at = resp.find(key);
  if (at == std::string::npos) return static_cast<double>(resp.size());
  std::size_t end = at + key.size();
  while (end < resp.size() && resp[end] != ',' && resp[end] != '}') ++end;
  return static_cast<double>(resp.size() - (end - at - key.size()));
}

class QueryBench {
 public:
  QueryBench(const Args& args, bool hot)
      : args_(args),
        hot_(hot),
        input_(read_input(args.input)),
        session_(session_options()),
        server_(session_) {}

  int run() {
    setup();
    signal_ready();
    if (args_.mode == Mode::kSetup) return finish();
    if (args_.mode == Mode::kCounts) {
      count_phase();
      return finish();
    }
    long first = 0;
    double untraced_s = args_.seconds;
    if (args_.mode == Mode::kTraced) {
      count_phase();
      const PhaseResult t = traced_phase(kCountOps);
      first = kCountOps + t.ops;
      untraced_s = std::max(0.4 * args_.seconds, args_.seconds - t.wall_s);
    }
    Samples lat;
    Windows windows(window());
    const auto stats0 = session_.cache_stats();
    const PhaseResult p = timed_loop(
        untraced_s, window(), max_ops(first), [&](long i) {
          const std::string& line = request_line(first + i);
          const auto t0 = Clock::now();
          std::string resp = server_.handle_line(line);
          const double us =
              std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
          lat.add(us);
          windows.add(t0, us);
          keep_response(first + i, resp);
          return response_ok(resp);
        });
    const auto stats1 = session_.cache_stats();
    report_.doc.set("peak_rss_mb", peak_rss_mb());
    report_.phase(args_.mode == Mode::kTraced ? "untraced" : "timed", p);
    report_.latency(lat, windows);
    report_.attempted += p.ops;
    report_.failed += p.failed;
    check_cache_path(stats1.hits - stats0.hits, stats1.misses - stats0.misses, p.ops);
    gate();
    return finish();
  }

 private:
  const Args& args_;
  bool hot_;
  Input input_;
  rlc::svc::Session session_;
  rlc::svc::Server server_;
  std::vector<QueryRequest> keys_;    // hot: the replayed key set
  std::vector<QueryResult> cold_;     // hot: cold answers from the fill
  std::vector<std::vector<long>> order_;  // hot: one key permutation per pass
  std::vector<std::string> first_responses_;  // gate sample
  std::vector<long> first_indices_;
  Report report_;

  long block() const { return input_.meta_int("block"); }
  long window() const { return input_.meta_int("window"); }

  long max_ops(long first) const {
    if (hot_) return LONG_MAX;
    return static_cast<long>(input_.section("timed").size()) - first;
  }

  const std::string& request_line(long i) const {
    if (!hot_) return input_.section("timed")[static_cast<std::size_t>(i)];
    return input_.section("timed")[static_cast<std::size_t>(key_index(i))];
  }

  long key_index(long i) const {
    const long n = static_cast<long>(keys_.size());
    const auto& perm = order_[static_cast<std::size_t>((i / n) % static_cast<long>(order_.size()))];
    return perm[static_cast<std::size_t>(i % n)];
  }

  void setup() {
    for (const std::string& line : input_.section("warmup")) {
      if (!response_ok(server_.handle_line(line))) {
        throw std::runtime_error("warm-up request failed: " + line);
      }
    }
    if (!hot_) return;
    for (const std::string& line : input_.section("timed")) {
      keys_.push_back(parse_request(line));
      rlc::StatusOr<QueryResult> r = session_.submit(keys_.back());
      if (!r.is_ok()) throw std::runtime_error("cache fill failed: " + line);
      cold_.push_back(*r);
    }
    for (const std::string& line : input_.section("order")) {
      std::istringstream in(line);
      std::vector<long> perm;
      for (long k; in >> k;) perm.push_back(k);
      if (perm.size() != keys_.size()) throw std::runtime_error("bad order line");
      order_.push_back(std::move(perm));
    }
    if (order_.empty()) throw std::runtime_error("hot input without @order");
    // One pass through the front end so timing starts in steady state.
    for (long i = 0; i < static_cast<long>(keys_.size()); ++i) {
      server_.handle_line(request_line(i));
    }
  }

  void keep_response(long i, const std::string& resp) {
    const bool keep = hot_ ? i < static_cast<long>(keys_.size())
                           : first_responses_.size() < kGateResponses;
    if (!keep) return;
    first_responses_.push_back(resp);
    first_indices_.push_back(i);
  }

  /// Cold: every timed request must miss; hot: every one must hit.
  void check_cache_path(std::uint64_t hits, std::uint64_t misses, long ops) {
    const std::uint64_t want = static_cast<std::uint64_t>(ops);
    if (hot_ ? hits != want : misses != want) {
      report_.fail("cache path: " + std::to_string(hits) + " hits, " +
                   std::to_string(misses) + " misses over " +
                   std::to_string(ops) + " ops");
    }
  }

  /// Deterministic per-op counts over the first kCountOps ops: registry
  /// deltas around each handle_line, answer fields, and the exact engine's
  /// legacy fallbacks from a replay with ExactStats.
  void count_phase() {
    Counts total;
    double newton = 0, bytes_in = 0, bytes_out = 0, legacy = 0;
    const auto stats0 = session_.cache_stats();
    for (long i = 0; i < kCountOps; ++i) {
      const std::string& line = request_line(i);
      const Counts before = registry_counts();
      const std::string resp = server_.handle_line(line);
      accumulate(total, minus(registry_counts(), before));
      keep_response(i, resp);
      ++report_.attempted;
      bytes_in += static_cast<double>(line.size());
      bytes_out += stable_bytes(resp);
      const auto res = response_result(resp);
      if (!res) {
        report_.fail("count phase: non-ok response to " + line);
        continue;
      }
      if (res->bool_or("from_cache", false)) continue;
      newton += res->number_or("newton_iterations", 0.0);
      const QueryRequest q = parse_request(line);
      if (q.with_exact_delay) {
        rlc::core::ExactStats st;
        rlc::core::exact_threshold_delay(
            rlc::scenario::technology_by_name(q.technology), q.l,
            res->number_or("h", 0.0), res->number_or("k", 0.0),
            res->number_or("tau", 0.0), q.threshold, exact_options(q), &st);
        legacy += static_cast<double>(st.legacy_fallbacks);
      }
    }
    const auto stats1 = session_.cache_stats();
    total["svc.cache_stats.hits"] = static_cast<double>(stats1.hits - stats0.hits);
    total["svc.cache_stats.lookups"] = static_cast<double>(
        (stats1.hits - stats0.hits) + (stats1.misses - stats0.misses));
    total["answer.newton_iterations"] = newton;
    total["answer.exact_legacy_fallbacks"] = legacy;
    total["io.bytes_in"] = bytes_in;
    total["io.bytes_out"] = bytes_out;
    report_.counts(total, kCountOps);
  }

  /// Traced phase, at most 60% of --seconds and kMaxTracedOps ops: spans
  /// around the real handle_line call, then replays of the inner
  /// layers' public entry points on the same inputs: the request's parse,
  /// Session::submit on a session in the state the real call found
  /// (the warm session itself when hot; an empty twin when cold), the
  /// cache key, core::optimize / the exact engine / the noise engine when
  /// the answer was not cached, and serialization.
  PhaseResult traced_phase(long first) {
    SpanLog log;
    std::optional<rlc::svc::Session> twin;
    if (!hot_) twin.emplace(session_options());
    rlc::svc::Session& replay = hot_ ? session_ : *twin;
    const long cap = std::min(kMaxTracedOps, max_ops(first));
    const PhaseResult p = timed_loop(0.6 * args_.seconds, block(), cap, [&](long i) {
      const long rid = first + i;
      const std::string& line = request_line(rid);
      int req_span = -1;
      const std::string resp = in_span(&log, "svc.request", -1, rid, false, &req_span,
                                       [&] { return server_.handle_line(line); });
      const QueryRequest q = in_span(&log, "io.parse", req_span, rid, true, nullptr,
                                     [&] { return parse_request(line); });
      int submit_span = -1;
      const rlc::StatusOr<QueryResult> r = in_span(
          &log, "svc.submit", req_span, rid, true, &submit_span,
          [&] { return replay.submit(q); });
      in_span(&log, "svc.cache_key", submit_span, rid, true, nullptr,
              [&] { return q.cache_key(); });
      if (!r.is_ok()) return false;
      if (!r->from_cache) replay_core(log, q, *r, submit_span, rid);
      in_span(&log, "io.serialize", req_span, rid, true, nullptr,
              [&] { return r->to_json().str(); });
      keep_response(rid, resp);
      return response_ok(resp);
    });
    report_.phase("traced", p);
    report_.attempted += p.ops;
    report_.failed += p.failed;
    report_.doc.set("spans", static_cast<long long>(log.size()));
    if (!log.write(args_.spans)) report_.fail("cannot write " + args_.spans);
    return p;
  }

  void replay_core(SpanLog& log, const QueryRequest& q, const QueryResult& r,
                   int parent, long rid) {
    const rlc::core::Technology tech = rlc::scenario::technology_by_name(q.technology);
    int opt_span = -1;
    static_cast<void>(
        in_span(&log, "core.optimize", parent, rid, true, &opt_span,
                [&] { return rlc::core::optimize(tech, to_optimize_request(q)); }));
    if (q.n_conductors > 1) {
      const std::size_t n = static_cast<std::size_t>(q.n_conductors);
      const auto bus = rlc::tline::symmetric_bus(tech.line(q.l), q.coupling_cc,
                                                 q.coupling_km, n);
      rlc::core::CoupledExcitation exc{std::vector<double>(n, 0.0),
                                       std::vector<double>(n, 0.0)};
      exc.target[n / 2] = 1.0;
      in_span(&log, "core.noise", opt_span, rid, true, nullptr, [&] {
        return rlc::core::exact_coupled_victim_noise(bus, r.h, tech.rep.scaled(r.k),
                                                     exc, 0, r.tau);
      });
    }
    if (q.with_exact_delay) {
      in_span(&log, "core.exact", parent, rid, true, nullptr, [&] {
        return rlc::core::exact_threshold_delay(tech, q.l, r.h, r.k, r.tau,
                                                q.threshold, exact_options(q),
                                                nullptr);
      });
    }
  }

  /// Correctness gate, outside every timed phase.
  void gate() {
    long checked = 0;
    if (hot_) {
      for (std::size_t i = 0; i < keys_.size(); ++i) {
        ++checked;
        const rlc::StatusOr<QueryResult> hit = session_.submit(keys_[i]);
        if (!hit.is_ok() || !hit->from_cache || !hit->same_answer(cold_[i])) {
          report_.fail("hot answer differs from the cold answer for key " +
                       std::to_string(i));
        }
      }
      for (std::size_t j = 0; j < first_responses_.size(); ++j) {
        ++checked;
        const long key = key_index(first_indices_[j]);
        const auto res = response_result(first_responses_[j]);
        const auto cold = rlc::io::parse_json(cold_[static_cast<std::size_t>(key)].to_json().str());
        const std::string diff = res ? first_difference(*res, cold) : "<status>";
        if (!diff.empty()) {
          report_.fail("served hot answer differs in " + diff + " for key " +
                       std::to_string(key));
        }
      }
    } else {
      for (std::size_t j = 0; j < first_responses_.size(); ++j) {
        ++checked;
        const std::string& line = request_line(first_indices_[j]);
        const QueryRequest q = parse_request(line);
        const auto res = response_result(first_responses_[j]);
        const auto want = core_answer(q);
        const std::string diff =
            !res ? "<status>" : !want ? "<core::optimize failed>" : first_difference(*res, *want);
        if (!diff.empty()) {
          report_.fail("cold answer differs from core::optimize in " + diff + ": " + line);
        } else if (!power_slack_met(q, *res)) {
          report_.fail("power answer exceeds (1 + eps) T_opt: " + line);
        }
      }
      reference_answers();
    }
    report_.doc.set("gate_checked", static_cast<long long>(checked));
  }

  /// Answers to the fixed reference queries on a fresh session; run.py
  /// compares them with the answers recorded in perfbench/reference.
  void reference_answers() {
    rlc::svc::Session fresh(session_options());
    rlc::svc::Server server(fresh);
    rlc::io::JsonArray out;
    for (const std::string& line : input_.section("reference")) {
      ++report_.attempted;
      const std::string resp = server.handle_line(line);
      const auto res = response_result(resp);
      if (!res) {
        report_.fail("reference query failed: " + line);
        continue;
      }
      if (!power_slack_met(parse_request(line), *res)) {
        report_.fail("power answer exceeds (1 + eps) T_opt: " + line);
      }
      out.push(resp);
    }
    report_.doc.set("reference_responses", out);
  }

  int finish() {
    report_.doc.set("workload", hot_ ? "query_hot" : "query_cold");
    if (!report_.write(args_.out)) return 1;
    return report_.failed == 0 ? 0 : 1;
  }
};

}  // namespace

int run_query_workload(const Args& args, bool hot) {
  QueryBench bench(args, hot);
  return bench.run();
}

}  // namespace pb
