#include "support/response_reference.hpp"

#include <variant>

#include "rlc/base/version.hpp"
#include "rlc/svc/serve.hpp"

namespace rlc::svc::reference {

namespace {

io::Json envelope(const wire::RequestId& id) {
  io::Json j;
  j.set("schema", kServeSchemaVersion);
  j.set("version", rlc::version());
  if (const std::string* s = std::get_if<std::string>(&id)) j.set("id", *s);
  if (const double* d = std::get_if<double>(&id)) j.set("id", *d);
  return j;
}

}  // namespace

io::Json reference_result_json(const QueryResult& r) {
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
  j.set("from_cache", r.from_cache);
  j.set("wall_seconds", r.wall_seconds);
  if (!r.trace_id.empty()) {
    j.set("trace_id", r.trace_id);
    j.set("queue_us", r.queue_us);
    j.set("cache_us", r.cache_us);
    j.set("solve_us", r.solve_us);
  }
  return j;
}

std::string reference_ok(const wire::RequestId& id, const io::Json& result) {
  io::Json j = envelope(id);
  j.set("status", "ok");
  j.set("code", 0);
  j.set("result", result);
  return j.str();
}

std::string reference_response(const wire::RequestId& id,
                               const rlc::StatusOr<QueryResult>& r) {
  if (r.is_ok()) return reference_ok(id, reference_result_json(*r));
  io::Json j = envelope(id);
  j.set("status", r.status().code_name());
  j.set("code", static_cast<int>(r.status().code()));
  j.set("message", r.status().message());
  return j.str();
}

}  // namespace rlc::svc::reference
