#include "rlc/svc/session.hpp"

#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "rlc/core/exact_delay.hpp"
#include "rlc/core/optimize_api.hpp"
#include "rlc/exec/thread_pool.hpp"
#include "rlc/obs/metrics.hpp"
#include "rlc/obs/trace.hpp"
#include "rlc/scenario/registry.hpp"
#include "rlc/svc/slowlog.hpp"
#include "rlc/tline/coupled_line.hpp"

namespace rlc::svc {

namespace {

/// svc.* instrumentation ids, interned once.  Hit rate = hits/(hits+misses);
/// svc.latency_us carries p50/p99 through the registry's histogram
/// quantiles; queue depth counts in-flight requests.
struct SvcMetrics {
  int requests;
  int batches;
  int cache_hits;
  int cache_misses;
  int deadline_exceeded;
  int cancelled;
  int errors;
  int queue_depth;
  int queue_depth_max;
  int batch_size;
  int batch_grouped;
  int latency_us;
  int stage_queue_us;
  int stage_cache_us;
  int stage_solve_us;
  int slow_total_us;
  static const SvcMetrics& get() {
    auto& r = obs::Registry::global();
    static const SvcMetrics m{
        r.counter("svc.requests"),
        r.counter("svc.batches"),
        r.counter("svc.cache.hits"),
        r.counter("svc.cache.misses"),
        r.counter("svc.deadline_exceeded"),
        r.counter("svc.cancelled"),
        r.counter("svc.errors"),
        r.gauge("svc.queue_depth"),
        r.gauge("svc.queue_depth_max"),
        r.histogram("svc.batch_size", 1.0, 4096.0, 12),
        r.counter("svc.batch.grouped"),
        r.histogram("svc.latency_us", 1.0, 1.0e7, 32),
        r.histogram("svc.stage.queue_us", 1.0, 1.0e7, 32),
        r.histogram("svc.stage.cache_us", 1.0, 1.0e7, 32),
        r.histogram("svc.stage.solve_us", 1.0, 1.0e7, 32),
        r.histogram("svc.slow.total_us", 1.0, 1.0e7, 32),
    };
    return m;
  }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Record the per-stage histograms for every request and offer traced
/// requests to the slow-query log.  Stage time is observation, never part
/// of the answer.  `key` is req.cache_key().
void account_stages(const QueryRequest& req, std::string_view key,
                    const char* status, bool from_cache, double queue_us,
                    double cache_us, double solve_us) {
  auto& reg = obs::Registry::global();
  const SvcMetrics& m = SvcMetrics::get();
  reg.record(m.stage_queue_us, queue_us);
  reg.record(m.stage_cache_us, cache_us);
  reg.record(m.stage_solve_us, solve_us);
  if (req.trace_id.empty()) return;
  const double total_us = queue_us + cache_us + solve_us;
  reg.record(m.slow_total_us, total_us);
  SlowQueryLog::Entry e;
  e.trace_id = req.trace_id;
  e.technology = req.technology;
  e.cache_hash = cache_hash_of(key);
  e.from_cache = from_cache;
  e.status = status;
  e.queue_us = queue_us;
  e.cache_us = cache_us;
  e.solve_us = solve_us;
  e.total_us = total_us;
  SlowQueryLog::global().note(std::move(e));
}

/// Count a failed answer once, by its code: a cancel and a deadline in
/// their own counters, every other failure in svc.errors.
void count_failure(const rlc::Status& st) {
  if (st.is_ok()) return;
  const SvcMetrics& m = SvcMetrics::get();
  obs::Registry::global().add(
      st.code() == StatusCode::kCancelled          ? m.cancelled
      : st.code() == StatusCode::kDeadlineExceeded ? m.deadline_exceeded
                                                   : m.errors);
}

}  // namespace

struct Session::Impl {
  explicit Impl(const SessionOptions& opts)
      : pool(opts.threads), cache(opts.cache_capacity) {
    scenario::register_all_scenarios();  // idempotent; needed by run_scenario
  }

  exec::ThreadPool pool;
  LruCache<QueryResult> cache;

  /// The whole request path for one query, counted once by the Status it
  /// returns.  Never throws: every failure mode is a Status (the boundary
  /// rule).  Order matters — validation, then the pre-flight
  /// deadline/cancel check, then the cache, then the solve — so an expired
  /// deadline does no work and writes nothing.
  ///
  /// `key` is req.cache_key(), built once by the caller.  `received_ns`
  /// (Tracer::now_ns clock, 0 = unknown) is when the server first read the
  /// request off the wire; the gap to pickup here is the queue stage of the
  /// per-request attribution.
  rlc::StatusOr<QueryResult> answer(const QueryRequest& req,
                                    const std::string& key,
                                    const CancelToken& cancel,
                                    std::int64_t received_ns) {
    obs::Registry::global().add(SvcMetrics::get().requests);
    rlc::StatusOr<QueryResult> result =
        lookup_or_solve(req, key, cancel, received_ns);
    count_failure(result.status());
    return result;
  }

  rlc::StatusOr<QueryResult> lookup_or_solve(const QueryRequest& req,
                                             const std::string& key,
                                             const CancelToken& cancel,
                                             std::int64_t received_ns) {
    auto& reg = obs::Registry::global();
    const SvcMetrics& m = SvcMetrics::get();
    const auto t0 = std::chrono::steady_clock::now();

    double queue_us = 0.0;
    if (received_ns > 0) {
      const std::int64_t now = obs::Tracer::now_ns();
      if (now > received_ns) {
        queue_us = static_cast<double>(now - received_ns) / 1e3;
      }
    }

    if (rlc::Status st = req.validate(); !st.is_ok()) return st;
    if (cancel.cancel_requested()) {
      account_stages(req, key, "cancelled", false, queue_us, 0.0, 0.0);
      return rlc::Status::cancelled("request cancelled before start");
    }
    const Deadline deadline = Deadline::after(req.deadline_seconds);
    if (deadline.expired()) {
      account_stages(req, key, "deadline_exceeded", false, queue_us, 0.0, 0.0);
      return rlc::Status::deadline_exceeded(
          "deadline expired before the solve started");
    }

    const auto t_cache = std::chrono::steady_clock::now();
    std::optional<QueryResult> hit = cache.get(key);
    const double cache_us = seconds_since(t_cache) * 1e6;
    if (hit) {
      reg.add(m.cache_hits);
      hit->from_cache = true;
      hit->wall_seconds = seconds_since(t0);
      reg.record(m.latency_us, hit->wall_seconds * 1e6);
      account_stages(req, key, "ok", true, queue_us, cache_us, 0.0);
      hit->trace_id = req.trace_id;  // empty for untraced: nothing emitted
      hit->queue_us = queue_us;
      hit->cache_us = cache_us;
      hit->solve_us = 0.0;
      return *hit;
    }
    reg.add(m.cache_misses);

    // A cancel or deadline that fires mid-solve unwinds as CancelledError
    // to the boundary, or comes back from core::optimize's own boundary as
    // a Status: the same codes either way.
    ExecScope scope(cancel, deadline);
    const auto t_solve = std::chrono::steady_clock::now();
    rlc::StatusOr<QueryResult> result =
        rlc::at_boundary<QueryResult>([&] { return compute(req); });
    const double solve_us = seconds_since(t_solve) * 1e6;
    if (!result.is_ok()) {
      account_stages(req, key, result.status().code_name(), false, queue_us,
                     cache_us, solve_us);
      return result;
    }
    result->wall_seconds = seconds_since(t0);
    // The answer members are rendered once, here, and kept with the entry:
    // every hit writes these bytes as they are.  Cache BEFORE stamping the
    // trace block: cached entries are shared across clients and must stay
    // trace-free.
    result->render_answer();
    cache.put(key, *result);
    reg.record(m.latency_us, result->wall_seconds * 1e6);
    account_stages(req, key, "ok", false, queue_us, cache_us, solve_us);
    result->trace_id = req.trace_id;
    result->queue_us = queue_us;
    result->cache_us = cache_us;
    result->solve_us = solve_us;
    return result;
  }

  /// The solve itself (inside the ExecScope; CancelledError may unwind
  /// through here to the boundary in lookup_or_solve()): one
  /// core::optimize() call, mapped onto the wire result, then the exact
  /// engine on request.
  rlc::StatusOr<QueryResult> compute(const QueryRequest& req) {
    core::Technology tech;
    try {
      tech = scenario::technology_by_name(req.technology);
    } catch (const std::exception& e) {
      // Unknown id OR an out-of-range interpolated node: both are caller
      // errors, whatever exception type the resolver used internally.
      return rlc::Status::invalid_argument(e.what());
    }
    const std::size_t n = static_cast<std::size_t>(req.n_conductors);
    core::OptimizeRequest oreq;
    oreq.objective = req.objective == "power" ? core::Objective::kPower
                                              : core::Objective::kDelay;
    oreq.l = req.l;
    oreq.conductors = n;
    oreq.coupling_cc = req.coupling_cc;
    oreq.coupling_km = req.coupling_km;
    oreq.constraints.noise_vmax = req.noise_vmax;
    if (oreq.objective == core::Objective::kPower) {
      oreq.constraints.delay_slack_eps = req.delay_slack_eps;
    }
    oreq.optim.f = req.threshold;
    oreq.optim.max_iterations = req.max_iterations;
    oreq.optim.residual_tolerance = req.residual_tolerance;
    rlc::StatusOr<core::OptimizeResponse> oresp = core::optimize(tech, oreq);
    if (!oresp.is_ok()) {
      if (oresp.status().code() == StatusCode::kNoConvergence) {
        return rlc::Status::no_convergence(
            oresp.status().message() + " (technology " + req.technology +
            ", l=" + io::render_number(req.l) + " H/m)");
      }
      return oresp.status();
    }
    const core::OptimResult& opt = oresp->sizing;
    QueryResult r;
    r.h = opt.h;
    r.k = opt.k;
    r.tau = opt.tau;
    r.delay_per_length = opt.delay_per_length;
    r.newton_iterations = opt.newton_iterations;
    r.method =
        opt.method == core::OptimMethod::kNewton ? "newton" : "nelder_mead";
    if (oresp->has_power) {
      r.power_total = oresp->power.total();
      r.power_dynamic = oresp->power.dynamic;
      r.power_short_circuit = oresp->power.short_circuit;
      r.power_leakage = oresp->power.leakage;
      r.delay_ref = oresp->delay_ref;
      r.power_ref = oresp->power_ref;
      r.power_constraint_active = oresp->delay_constraint_active;
      r.has_power = true;
    }
    if (oresp->has_noise) {
      r.peak_noise = oresp->peak_noise;
      r.noise_width = oresp->noise_width;
      r.constraint_active = oresp->noise_constraint_active;
      r.has_noise = true;
    }
    if (req.line_length > 0.0) {
      r.total_delay = r.delay_per_length * req.line_length;
    }
    if (!req.with_exact_delay) return r;

    core::ExactOptions eo;
    eo.talbot_points = req.talbot_points;
    eo.window_points = req.talbot_points;
    std::optional<double> exact;
    if (n == 1) {
      exact = core::exact_threshold_delay(tech, req.l, r.h, r.k, r.tau,
                                          req.threshold, eo, nullptr);
    } else {
      // Aggressor (center conductor) threshold crossing with quiet
      // neighbours; the coupled engine takes f as an absolute level and
      // the swing here is 1 V.
      const tline::CoupledLine bus = tline::symmetric_bus(
          tech.line(req.l), req.coupling_cc, req.coupling_km, n);
      core::CoupledExcitation exc{std::vector<double>(n, 0.0),
                                  std::vector<double>(n, 0.0)};
      exc.target[n / 2] = 1.0;
      exact = core::exact_coupled_threshold_delay(
          bus, r.h, tech.rep.scaled(r.k), exc, n / 2, r.tau, req.threshold,
          eo);
    }
    if (!exact) {
      return rlc::Status::no_convergence(
          std::string(n == 1 ? "" : "coupled ") +
          "exact-waveform engine did not bracket the threshold crossing");
    }
    r.exact_delay = *exact;
    r.has_exact = true;
    return r;
  }
};

Session::Session(const SessionOptions& opts)
    : impl_(std::make_unique<Impl>(opts)) {}

Session::~Session() = default;

rlc::StatusOr<QueryResult> Session::submit(const QueryRequest& req,
                                           const CancelToken& cancel) {
  return std::move(submit_batch({req}, cancel).front());
}

std::vector<rlc::StatusOr<QueryResult>> Session::submit_batch(
    const std::vector<QueryRequest>& reqs, const CancelToken& cancel,
    const std::vector<std::int64_t>& received_ns) {
  auto& reg = obs::Registry::global();
  const SvcMetrics& m = SvcMetrics::get();
  const std::size_t n = reqs.size();
  reg.add(m.batches);
  reg.record(m.batch_size, static_cast<double>(n));
  reg.gauge_add(m.queue_depth, static_cast<std::int64_t>(n));
  reg.gauge_max(m.queue_depth_max, static_cast<std::int64_t>(n));
  const auto stamp_of = [&received_ns](std::size_t i) -> std::int64_t {
    return i < received_ns.size() ? received_ns[i] : 0;
  };

  std::vector<rlc::StatusOr<QueryResult>> out;
  out.reserve(n);
  if (n == 1) {
    // A batch of one has nothing to group: no keys, leaders or slots to
    // gather.  It still runs as a loop of one on the pool (inline), so
    // exec.pool.loops and the parallel_for span count it like any batch.
    const auto one = [&] {
      out.push_back(impl_->answer(reqs[0], reqs[0].cache_key(), cancel,
                                  stamp_of(0)));
    };
    impl_->pool.parallel_for(1, [&one](std::size_t) { one(); }, 1);
    reg.gauge_add(m.queue_depth, -1);
    return out;
  }

  // Group same-key requests before fanning out: the first occurrence of
  // each cache key (in request order, so grouping is deterministic across
  // thread counts) is the LEADER and solves in the first parallel pass —
  // its cold cache miss pays the batched SoA contour sweeps exactly once
  // per distinct line.  The remaining duplicates run in a second pass and
  // resolve from the cache the leaders just filled, which matches what
  // serial submission order would have produced (a leader whose solve
  // failed caches nothing, so its followers recompute — and fail — the
  // same way).  Each key is built once, here, and handed to answer().
  std::vector<std::string> keys;
  keys.reserve(n);  // no reallocation: first_of views the keys in place
  std::vector<std::size_t> leaders, followers;
  leaders.reserve(n);
  {
    std::unordered_map<std::string_view, std::size_t> first_of;
    first_of.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      keys.push_back(reqs[i].cache_key());
      const bool lead = first_of.emplace(keys.back(), i).second;
      (lead ? leaders : followers).push_back(i);
    }
  }
  reg.add(m.batch_grouped, static_cast<std::int64_t>(followers.size()));

  // One task per request (grain 1): requests are coarse relative to the
  // queue, and per-request sharding keeps a slow solve from serializing its
  // chunk-mates.  answer() never throws, so every slot gets filled.
  //
  // Queue-depth accounting is batch-level, not per-request: a gauge is one
  // SHARED atomic (see obs/metrics.hpp), so decrementing it inside the
  // lambda put a contended RMW on the parallel cold path — the only shared
  // write between workers.  Depth now drops when the batch completes; the
  // max gauge still records the true high-water mark.
  std::vector<std::optional<rlc::StatusOr<QueryResult>>> slots(n);
  const auto run = [&](std::size_t i) {
    slots[i] = impl_->answer(reqs[i], keys[i], cancel, stamp_of(i));
  };
  impl_->pool.parallel_for(
      leaders.size(), [&](std::size_t j) { run(leaders[j]); }, 1);
  if (!followers.empty()) {
    impl_->pool.parallel_for(
        followers.size(), [&](std::size_t j) { run(followers[j]); }, 1);
  }
  reg.gauge_add(m.queue_depth, -static_cast<std::int64_t>(n));

  for (auto& slot : slots) {
    out.push_back(slot ? std::move(*slot)
                       : rlc::Status::internal("request slot never ran"));
  }
  return out;
}

rlc::StatusOr<scenario::ScenarioResult> Session::run_scenario(
    const scenario::ScenarioSpec& spec, double deadline_seconds,
    const CancelToken& cancel) {
  using Result = scenario::ScenarioResult;
  obs::Registry::global().add(SvcMetrics::get().requests);
  rlc::StatusOr<Result> result = [&]() -> rlc::StatusOr<Result> {
    if (rlc::Status st = spec.validate(); !st.is_ok()) return st;
    rlc::StatusOr<const scenario::Scenario*> sc =
        scenario::ScenarioRegistry::global().lookup(spec.scenario);
    if (!sc.is_ok()) return sc.status();
    const Deadline deadline = Deadline::after(deadline_seconds);
    if (deadline.expired()) {
      return rlc::Status::deadline_exceeded(
          "deadline expired before the scenario started");
    }
    ExecScope scope(cancel, deadline);
    return rlc::at_boundary<Result>(
        [&] { return scenario::run_scenario(**sc, spec, &impl_->pool); });
  }();
  count_failure(result.status());
  return result;
}

std::size_t Session::threads() const { return impl_->pool.size(); }

LruCache<QueryResult>::Stats Session::cache_stats() const {
  return impl_->cache.stats();
}

void Session::clear_cache() { impl_->cache.clear(); }

}  // namespace rlc::svc
