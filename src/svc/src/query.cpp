#include "rlc/svc/query.hpp"

#include <cmath>
#include <cstdint>
#include <utility>

#include "rlc/tline/coupled_line.hpp"

namespace rlc::svc {

namespace {

rlc::Status bad(const std::string& what) {
  return rlc::Status::invalid_argument(what);
}

}  // namespace

rlc::Status QueryRequest::validate() const {
  if (technology.empty()) return bad("technology must be non-empty");
  if (!std::isfinite(l) || l < 0.0) {
    return bad("l must be finite and >= 0 (got " + io::render_number(l) + ")");
  }
  if (!(threshold > 0.0) || !(threshold < 1.0)) {
    return bad("threshold must be in (0, 1) (got " +
               io::render_number(threshold) + ")");
  }
  if (max_iterations < 1) return bad("max_iterations must be >= 1");
  if (!(residual_tolerance > 0.0)) {
    return bad("residual_tolerance must be > 0");
  }
  if (talbot_points < 4) return bad("talbot_points must be >= 4");
  if (!std::isfinite(line_length) || line_length < 0.0) {
    return bad("line_length must be finite and >= 0");
  }
  if (n_conductors < 1 || n_conductors > 3) {
    return bad("n_conductors must be 1, 2 or 3 (got " +
               std::to_string(n_conductors) + ")");
  }
  if (!std::isfinite(coupling_cc) || coupling_cc < 0.0) {
    return bad("coupling_cc must be finite and >= 0");
  }
  const double km_bound =
      tline::coupling_km_bound(static_cast<std::size_t>(n_conductors));
  if (!std::isfinite(coupling_km) || !(std::abs(coupling_km) < km_bound)) {
    return bad("coupling_km must satisfy |km| < " +
               io::render_number(km_bound) + " at n_conductors = " +
               std::to_string(n_conductors) + " (got " +
               io::render_number(coupling_km) + ")");
  }
  if (!std::isfinite(noise_vmax) || noise_vmax < 0.0) {
    return bad("noise_vmax must be finite and >= 0");
  }
  if (n_conductors == 1 &&
      (coupling_cc != 0.0 || coupling_km != 0.0 || noise_vmax != 0.0)) {
    return bad(
        "coupling_cc/coupling_km/noise_vmax require n_conductors >= 2");
  }
  // An unknown objective is a typed error, never a silent "delay" fallback:
  // a client that asks for "minpower" must not get a delay answer cached
  // under a key that will collide with a future spelling.
  if (objective != "delay" && objective != "power") {
    return bad("objective must be \"delay\" or \"power\" (got \"" + objective +
               "\")");
  }
  if (std::isnan(delay_slack_eps) || delay_slack_eps < 0.0) {
    return bad("delay_slack_eps must be >= 0 (or infinity for unconstrained)");
  }
  if (objective == "power" && n_conductors != 1) {
    return bad("objective \"power\" requires n_conductors == 1");
  }
  if (objective != "power" && delay_slack_eps != kDefaultDelaySlackEps) {
    return bad("delay_slack_eps requires objective \"power\"");
  }
  if (std::isnan(deadline_seconds) || deadline_seconds < 0.0) {
    return bad("deadline_seconds must be >= 0 (or infinity for none)");
  }
  if (trace_id.size() > kMaxTraceIdLength) {
    return bad("trace_id must be <= " + std::to_string(kMaxTraceIdLength) +
               " characters (got " + std::to_string(trace_id.size()) + ")");
  }
  return rlc::Status::ok();
}

std::string QueryRequest::cache_key() const {
  // Fixed field order, exact double bits (%.17g via append_number), one
  // canonical spelling per field.  deadline_seconds is deliberately absent.
  // The reserve covers the longest key: 63 bytes of labels and flag, three
  // ints of at most 11 characters and eight numbers of at most 24.
  std::string key;
  key.reserve(288 + technology.size() + objective.size());
  const auto number = [&key](const char* label, double v) {
    key += label;
    io::append_number(key, v);
  };
  key += "tech=";
  key += technology;
  number(";l=", l);
  number(";f=", threshold);
  key += ";it=";
  key += std::to_string(max_iterations);
  number(";tol=", residual_tolerance);
  key += ";exact=";
  key += with_exact_delay ? '1' : '0';
  key += ";tp=";
  key += std::to_string(talbot_points);
  number(";L=", line_length);
  key += ";nc=";
  key += std::to_string(n_conductors);
  number(";cc=", coupling_cc);
  number(";km=", coupling_km);
  number(";vmax=", noise_vmax);
  // Objective block only when non-default, so every pre-objective key (and
  // its FNV hash, pinned by tests) is preserved verbatim.
  if (objective != "delay") {
    key += ";obj=";
    key += objective;
    number(";eps=", delay_slack_eps);
  }
  return key;
}

std::uint64_t cache_hash_of(std::string_view key) {
  // FNV-1a 64.
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t QueryRequest::cache_hash() const {
  return cache_hash_of(cache_key());
}

io::Json QueryRequest::to_json() const {
  io::Json j;
  j.set("technology", technology);
  j.set("l", l);
  j.set("threshold", threshold);
  j.set("max_iterations", max_iterations);
  j.set("residual_tolerance", residual_tolerance);
  j.set("with_exact_delay", with_exact_delay);
  j.set("talbot_points", talbot_points);
  j.set("line_length", line_length);
  j.set("n_conductors", n_conductors);
  j.set("coupling_cc", coupling_cc);
  j.set("coupling_km", coupling_km);
  j.set("noise_vmax", noise_vmax);
  // Only when non-default: delay-objective requests serialize exactly as
  // before the objective extension.
  if (objective != "delay") {
    j.set("objective", objective);
    j.set("delay_slack_eps", delay_slack_eps);
  }
  // Infinity renders as null; from_json treats null/absent as "no deadline".
  j.set("deadline_seconds", deadline_seconds);
  // Only when set: untraced requests must serialize exactly as before.
  if (!trace_id.empty()) j.set("trace_id", trace_id);
  return j;
}

rlc::StatusOr<QueryRequest> QueryRequest::from_json(const io::JsonValue& v) {
  if (v.kind() != io::JsonValue::Kind::kObject) {
    return bad("query request must be a JSON object");
  }
  QueryRequest req;
  std::string err;  // the first bad field stops the chain
  const bool ok =
      io::take_string(v, "technology", &req.technology, &err) &&
      io::take_number(v, "l", &req.l, &err) &&
      io::take_number(v, "threshold", &req.threshold, &err) &&
      io::take_int(v, "max_iterations", &req.max_iterations, &err) &&
      io::take_number(v, "residual_tolerance", &req.residual_tolerance, &err) &&
      io::take_bool(v, "with_exact_delay", &req.with_exact_delay, &err) &&
      io::take_int(v, "talbot_points", &req.talbot_points, &err) &&
      io::take_number(v, "line_length", &req.line_length, &err) &&
      io::take_int(v, "n_conductors", &req.n_conductors, &err) &&
      io::take_number(v, "coupling_cc", &req.coupling_cc, &err) &&
      io::take_number(v, "coupling_km", &req.coupling_km, &err) &&
      io::take_number(v, "noise_vmax", &req.noise_vmax, &err) &&
      io::take_string(v, "objective", &req.objective, &err) &&
      io::take_number(v, "delay_slack_eps", &req.delay_slack_eps, &err) &&
      io::take_number(v, "deadline_seconds", &req.deadline_seconds, &err) &&
      io::take_string(v, "trace_id", &req.trace_id, &err);
  if (!ok) return bad(err);
  if (rlc::Status st = req.validate(); !st.is_ok()) return st;
  return req;
}

namespace {

/// The answer members, "h" through "method".
io::Json answer_json(const QueryResult& r) {
  io::Json j;
  j.set("h", r.h);
  j.set("k", r.k);
  j.set("tau", r.tau);
  j.set("delay_per_length", r.delay_per_length);
  if (r.total_delay > 0.0) j.set("total_delay", r.total_delay);
  if (r.has_exact) j.set("exact_delay", r.exact_delay);
  if (r.has_noise) {
    j.set("peak_noise", r.peak_noise);
    j.set("noise_width", r.noise_width);
    j.set("constraint_active", r.constraint_active);
  }
  // Power block: present only for power-objective answers, so every
  // delay-objective response stays byte-identical to the pre-power wire.
  if (r.has_power) {
    j.set("power_total", r.power_total);
    j.set("power_dynamic", r.power_dynamic);
    j.set("power_short_circuit", r.power_short_circuit);
    j.set("power_leakage", r.power_leakage);
    j.set("delay_ref", r.delay_ref);
    j.set("power_ref", r.power_ref);
    j.set("power_constraint_active", r.power_constraint_active);
  }
  j.set("newton_iterations", r.newton_iterations);
  j.set("method", r.method);
  return j;
}

/// Bytes of the delivery and tracing members after the answer members, at
/// most: the literal keys and values plus six numbers of 24 characters.
constexpr std::size_t kDeliveryBytes = 224;

}  // namespace

void QueryResult::render_answer() {
  answer_members =
      std::make_shared<const std::string>(answer_json(*this).members());
}

void QueryResult::append_members(std::string& out) const {
  // The bytes io::Json::set writes for the same members (pinned against it
  // in tests/svc/test_wire.cpp).
  if (answer_members) {
    out += *answer_members;
  } else {
    out += answer_json(*this).members();
  }
  out += from_cache ? ", \"from_cache\": true" : ", \"from_cache\": false";
  out += ", \"wall_seconds\": ";
  io::append_number(out, wall_seconds);
  // Tracing block: present only for traced requests, so responses to
  // clients that never set trace_id stay byte-identical.
  if (!trace_id.empty()) {
    out += ", \"trace_id\": ";
    io::append_quoted(out, trace_id);
    out += ", \"queue_us\": ";
    io::append_number(out, queue_us);
    out += ", \"cache_us\": ";
    io::append_number(out, cache_us);
    out += ", \"solve_us\": ";
    io::append_number(out, solve_us);
  }
}

io::Json QueryResult::to_json() const {
  std::string members;
  members.reserve((answer_members ? answer_members->size() : 0) +
                  trace_id.size() + kDeliveryBytes);
  append_members(members);
  return io::Json(std::move(members));
}

bool QueryResult::same_answer(const QueryResult& o) const {
  return h == o.h && k == o.k && tau == o.tau &&
         delay_per_length == o.delay_per_length &&
         total_delay == o.total_delay && exact_delay == o.exact_delay &&
         has_exact == o.has_exact && peak_noise == o.peak_noise &&
         noise_width == o.noise_width &&
         constraint_active == o.constraint_active &&
         has_noise == o.has_noise && power_total == o.power_total &&
         power_dynamic == o.power_dynamic &&
         power_short_circuit == o.power_short_circuit &&
         power_leakage == o.power_leakage && delay_ref == o.delay_ref &&
         power_ref == o.power_ref &&
         power_constraint_active == o.power_constraint_active &&
         has_power == o.has_power &&
         newton_iterations == o.newton_iterations && method == o.method;
}

}  // namespace rlc::svc
