#include "rlc/svc/session.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rlc/core/exact_delay.hpp"
#include "rlc/core/optimize_api.hpp"
#include "rlc/io/json_reader.hpp"
#include "rlc/obs/metrics.hpp"
#include "rlc/scenario/registry.hpp"
#include "rlc/scenario/spec.hpp"
#include "rlc/tline/coupled_line.hpp"

namespace rlc::svc {
namespace {

/// A representative coupled request: 30% capacitive + 0.3 inductive
/// coupling at the paper's 1 nH/mm operating point.
QueryRequest coupled_request(const char* tech, int conductors) {
  QueryRequest q;
  q.technology = tech;
  q.l = 1.0e-6;
  q.n_conductors = conductors;
  q.coupling_cc =
      0.3 * scenario::technology_by_name(tech).line(q.l).c;
  q.coupling_km = 0.3;
  return q;
}

/// The workload of the determinism tests: both technologies over the
/// paper's inductance range, a couple of exact-engine and total-delay
/// variants mixed in.
std::vector<QueryRequest> grid_requests() {
  std::vector<QueryRequest> reqs;
  for (const char* tech : {"250nm", "100nm"}) {
    for (int i = 0; i < 8; ++i) {
      QueryRequest q;
      q.technology = tech;
      q.l = 5.0e-6 * i / 7;
      reqs.push_back(q);
    }
  }
  QueryRequest exact;
  exact.with_exact_delay = true;
  exact.l = 2.0e-6;
  reqs.push_back(exact);
  QueryRequest total;
  total.l = 1.0e-6;
  total.line_length = 0.01;
  reqs.push_back(total);
  // Coupled-bus variants: plain 2- and 3-wire queries plus one
  // noise-constrained solve, so batch determinism covers the coupled path.
  reqs.push_back(coupled_request("100nm", 2));
  reqs.push_back(coupled_request("250nm", 3));
  QueryRequest constrained = coupled_request("100nm", 2);
  constrained.noise_vmax = 0.12;
  reqs.push_back(constrained);
  // Power-objective variant, so batch determinism covers the power path.
  QueryRequest power;
  power.objective = "power";
  power.l = 1.0e-6;
  power.delay_slack_eps = 0.10;
  reqs.push_back(power);
  return reqs;
}

TEST(Session, SubmitAnswersAQuery) {
  Session session(SessionOptions{1, 0});
  QueryRequest q;
  q.l = 2.0e-6;
  const rlc::StatusOr<QueryResult> r = session.submit(q);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_GT(r->h, 0.0);
  EXPECT_GT(r->k, 0.0);
  EXPECT_GT(r->delay_per_length, 0.0);
  EXPECT_NEAR(r->delay_per_length, r->tau / r->h, 1e-22);
  EXPECT_FALSE(r->from_cache);
}

TEST(Session, TotalDelayScalesWithLineLength) {
  Session session(SessionOptions{1, 0});
  QueryRequest q;
  q.l = 1.0e-6;
  q.line_length = 0.01;
  const auto r = session.submit(q);
  ASSERT_TRUE(r.is_ok());
  EXPECT_NEAR(r->total_delay, r->delay_per_length * 0.01, 1e-22);
}

TEST(Session, PowerObjectiveCarriesThePowerBlock) {
  Session session(SessionOptions{1, 0});
  QueryRequest q;
  q.objective = "power";
  q.l = 1.0e-6;
  q.delay_slack_eps = 0.05;
  const auto r = session.submit(q);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ASSERT_TRUE(r->has_power);
  EXPECT_GT(r->power_total, 0.0);
  EXPECT_NEAR(r->power_total,
              r->power_dynamic + r->power_short_circuit + r->power_leakage,
              1e-12 * r->power_total);
  // The slack bound holds and the slack bought real power.
  EXPECT_LE(r->delay_per_length, 1.05 * r->delay_ref * (1.0 + 1e-9));
  EXPECT_LT(r->power_total, r->power_ref);
  EXPECT_TRUE(r->power_constraint_active);
}

/// The answer to `q` computed straight from core::optimize plus the exact
/// engine, without the service.
QueryResult core_answer(const QueryRequest& q) {
  const core::Technology tech = scenario::technology_by_name(q.technology);
  const std::size_t n = static_cast<std::size_t>(q.n_conductors);
  core::OptimizeRequest oreq;
  if (q.objective == "power") {
    oreq.objective = core::Objective::kPower;
    oreq.constraints.delay_slack_eps = q.delay_slack_eps;
  }
  oreq.l = q.l;
  oreq.conductors = n;
  oreq.coupling_cc = q.coupling_cc;
  oreq.coupling_km = q.coupling_km;
  oreq.constraints.noise_vmax = q.noise_vmax;
  oreq.optim.f = q.threshold;
  const auto resp = core::optimize(tech, oreq);
  EXPECT_TRUE(resp.is_ok()) << resp.status().to_string();
  if (!resp.is_ok()) return {};
  QueryResult r;
  r.h = resp->sizing.h;
  r.k = resp->sizing.k;
  r.tau = resp->sizing.tau;
  r.delay_per_length = resp->sizing.delay_per_length;
  r.newton_iterations = resp->sizing.newton_iterations;
  r.method = resp->sizing.method == core::OptimMethod::kNewton ? "newton"
                                                               : "nelder_mead";
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
  if (q.with_exact_delay) {
    core::ExactOptions eo;
    eo.talbot_points = eo.window_points = q.talbot_points;
    std::optional<double> exact;
    if (n == 1) {
      exact = core::exact_threshold_delay(tech, q.l, r.h, r.k, r.tau,
                                          q.threshold, eo, nullptr);
    } else {
      const auto bus = tline::symmetric_bus(tech.line(q.l), q.coupling_cc,
                                            q.coupling_km, n);
      core::CoupledExcitation exc{std::vector<double>(n, 0.0),
                                  std::vector<double>(n, 0.0)};
      exc.target[n / 2] = 1.0;
      exact = core::exact_coupled_threshold_delay(
          bus, r.h, tech.rep.scaled(r.k), exc, n / 2, r.tau, q.threshold, eo);
    }
    EXPECT_TRUE(exact.has_value());
    r.exact_delay = exact.value_or(0.0);
    r.has_exact = true;
  }
  return r;
}

// Session is a cache and a request path around core::optimize: for every
// query kind its answer is bitwise core::optimize's plus the exact engine.
TEST(Session, EveryQueryKindIsCoreOptimizePlusTheExactEngine) {
  struct Kind {
    const char* name;
    QueryRequest q;
    bool budget_active = false;
  };
  std::vector<Kind> kinds;
  QueryRequest scalar;
  scalar.l = 2.0e-6;
  kinds.push_back({"scalar", scalar});
  QueryRequest exact = scalar;
  exact.with_exact_delay = true;
  kinds.push_back({"exact", exact});
  QueryRequest power;
  power.objective = "power";
  power.l = 1.0e-6;
  power.delay_slack_eps = 0.05;
  kinds.push_back({"power", power});
  kinds.push_back({"2-conductor", coupled_request("100nm", 2)});
  kinds.push_back({"3-conductor", coupled_request("250nm", 3)});
  QueryRequest coupled_exact = coupled_request("100nm", 2);
  coupled_exact.with_exact_delay = true;
  kinds.push_back({"2-conductor exact", coupled_exact});
  QueryRequest loose = coupled_request("100nm", 2);
  loose.noise_vmax = 0.9;
  kinds.push_back({"budget inactive", loose});
  QueryRequest tight = coupled_request("100nm", 2);
  tight.noise_vmax = 0.1;
  kinds.push_back({"budget active", tight, true});

  Session session(SessionOptions{1, 0});
  for (const Kind& kind : kinds) {
    auto served = session.submit(kind.q);
    ASSERT_TRUE(served.is_ok()) << kind.name << ": "
                                << served.status().to_string();
    QueryResult direct = core_answer(kind.q);
    EXPECT_TRUE(served->same_answer(direct)) << kind.name;
    EXPECT_EQ(served->constraint_active, kind.budget_active) << kind.name;
    served->wall_seconds = direct.wall_seconds = 0.0;
    EXPECT_EQ(served->to_json().str(), direct.to_json().str()) << kind.name;
  }
}

// A coupled solve that fails reports the core message plus the query's
// technology and l, like a scalar one.
TEST(Session, UnreachableNoiseBudgetNamesTheQuery) {
  Session session(SessionOptions{1, 0});
  QueryRequest q = coupled_request("100nm", 2);
  q.noise_vmax = 0.001;
  const auto r = session.submit(q);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNoConvergence);
  const std::string& msg = r.status().message();
  EXPECT_EQ(msg.rfind("noise-constrained optimizer could not meet "
                      "peak_noise <= 0.001 V (best ",
                      0),
            0u)
      << msg;
  const std::string suffix =
      " V) (technology 100nm, l=" + io::render_number(q.l) + " H/m)";
  ASSERT_GE(msg.size(), suffix.size()) << msg;
  EXPECT_EQ(msg.substr(msg.size() - suffix.size()), suffix) << msg;
}

// The wire pin of the objective extension: a scalar query with the
// objective omitted answers byte-identically (same to_json bytes, modulo
// delivery metadata) to one that spells objective "delay" — and carries no
// power block at all.
TEST(Session, OmittedObjectiveIsByteIdenticalOnTheWire) {
  const char* base = "{\"technology\": \"100nm\", \"l\": 2e-06}";
  const char* explicit_delay =
      "{\"technology\": \"100nm\", \"l\": 2e-06, \"objective\": \"delay\"}";
  const auto qa = QueryRequest::from_json(io::parse_json(base));
  const auto qb = QueryRequest::from_json(io::parse_json(explicit_delay));
  ASSERT_TRUE(qa.is_ok());
  ASSERT_TRUE(qb.is_ok());
  EXPECT_EQ(*qa, *qb);
  EXPECT_EQ(qa->cache_key(), qb->cache_key());

  Session sa(SessionOptions{1, 0});
  Session sb(SessionOptions{1, 0});
  auto ra = sa.submit(*qa);
  auto rb = sb.submit(*qb);
  ASSERT_TRUE(ra.is_ok());
  ASSERT_TRUE(rb.is_ok());
  // Strip delivery metadata (timing differs run to run), then compare the
  // rendered wire bytes exactly.
  ra->wall_seconds = rb->wall_seconds = 0.0;
  EXPECT_EQ(ra->to_json().str(), rb->to_json().str());
  EXPECT_EQ(ra->to_json().str().find("power"), std::string::npos);
}

TEST(Session, BatchMatchesSerialBitForBitAcrossThreadCounts) {
  const std::vector<QueryRequest> reqs = grid_requests();

  // Reference: serial single-shot submits, caching off.
  Session serial(SessionOptions{1, 0});
  std::vector<QueryResult> expected;
  for (const QueryRequest& q : reqs) {
    rlc::StatusOr<QueryResult> r = serial.submit(q);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    expected.push_back(*r);
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Session session(SessionOptions{threads, 1024});
    const auto batch = session.submit_batch(reqs);
    ASSERT_EQ(batch.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      ASSERT_TRUE(batch[i].is_ok())
          << "threads=" << threads << " i=" << i << ": "
          << batch[i].status().to_string();
      EXPECT_TRUE(batch[i]->same_answer(expected[i]))
          << "threads=" << threads << " i=" << i;
    }
  }
}

/// What one counter moved between two registry snapshots (0 if absent).
std::int64_t counter_delta(const obs::MetricsSnapshot& delta,
                           const std::string& name) {
  for (const auto& [n, v] : delta.counters) {
    if (n == name) return v;
  }
  return 0;
}

TEST(Session, BatchOfOneKeepsEveryBatchMetric) {
  // A one-request batch skips the grouping but not the accounting: one
  // svc.batches, one svc.batch_size record, the latency and the three
  // stage histograms, and one pool loop, on a miss and on a hit.  submit
  // is a batch of one, so it counts the same.
  QueryRequest q;
  q.l = 1.2e-6;
  for (const bool direct : {false, true}) {
    const char* entry = direct ? "submit" : "submit_batch";
    Session session(SessionOptions{4, 64});
    for (const bool hit : {false, true}) {
      const auto before = obs::Registry::global().snapshot();
      std::vector<rlc::StatusOr<QueryResult>> out;
      if (direct) {
        out.push_back(session.submit(q));
      } else {
        out = session.submit_batch({q});
      }
      const auto delta =
          obs::Registry::global().snapshot().delta_since(before);
      ASSERT_EQ(out.size(), 1u) << entry;
      ASSERT_TRUE(out[0].is_ok()) << entry << ": "
                                  << out[0].status().to_string();
      EXPECT_EQ(out[0]->from_cache, hit) << entry;
      EXPECT_EQ(counter_delta(delta, "svc.batches"), 1) << entry;
      EXPECT_EQ(counter_delta(delta, "svc.requests"), 1) << entry;
      EXPECT_EQ(
          counter_delta(delta, hit ? "svc.cache.hits" : "svc.cache.misses"),
          1)
          << entry;
      if (hit) {
        EXPECT_EQ(counter_delta(delta, "exec.pool.loops"), 1) << entry;
      }
      for (const char* name :
           {"svc.batch_size", "svc.latency_us", "svc.stage.queue_us",
            "svc.stage.cache_us", "svc.stage.solve_us"}) {
        std::uint64_t records = 0;
        for (const auto& h : delta.histograms) {
          if (h.name == name) records = h.count;
        }
        EXPECT_EQ(records, 1u)
            << entry << " " << name << (hit ? " hit" : " miss");
      }
    }
  }
}

// Every failed answer counts once, by its Status code: a failure the solve
// returns (an unknown technology) in svc.errors like one a validator
// returns, an expired deadline in svc.deadline_exceeded and never in
// svc.errors.
TEST(Session, ErrorsCountEveryFailedAnswer) {
  Session session(SessionOptions{1, 64});
  const auto failed = [&session](const QueryRequest& q, StatusCode code,
                                 const char* counter) {
    const auto before = obs::Registry::global().snapshot();
    EXPECT_EQ(session.submit(q).status().code(), code) << counter;
    const auto delta = obs::Registry::global().snapshot().delta_since(before);
    EXPECT_EQ(counter_delta(delta, counter), 1) << counter;
    return counter_delta(delta, "svc.errors");
  };
  QueryRequest unknown;
  unknown.technology = "bogus";
  unknown.l = 0.0;
  failed(unknown, StatusCode::kInvalidArgument, "svc.errors");
  QueryRequest expired;
  expired.l = 1.0e-6;
  expired.deadline_seconds = 0.0;
  EXPECT_EQ(failed(expired, StatusCode::kDeadlineExceeded,
                   "svc.deadline_exceeded"),
            0);
}

TEST(Session, BatchGroupsDuplicateKeysThroughTheCache) {
  // A batch with repeated cache keys: each distinct key solves exactly once
  // (the leader pass), every duplicate is served from the cache the leaders
  // filled, the svc.batch.grouped counter records the follower count, and
  // the grouping is deterministic for any pool size because it follows
  // request order.
  std::vector<QueryRequest> reqs;
  for (int rep = 0; rep < 3; ++rep) {
    for (int i = 0; i < 4; ++i) {
      QueryRequest q;
      q.l = 1.0e-6 * i;
      reqs.push_back(q);
    }
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Session session(SessionOptions{threads, 256});
    const auto before = obs::Registry::global().snapshot();
    const auto batch = session.submit_batch(reqs);
    const auto grouped =
        obs::Registry::global().snapshot().delta_since(before);
    ASSERT_EQ(batch.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      ASSERT_TRUE(batch[i].is_ok()) << i;
      // First occurrence of each key is the cold leader; the two repeats
      // are cache hits — exactly as serial submission would have flagged.
      EXPECT_EQ(batch[i]->from_cache, i >= 4u) << "threads=" << threads
                                               << " i=" << i;
      EXPECT_TRUE(batch[i]->same_answer(*batch[i % 4]))
          << "threads=" << threads << " i=" << i;
    }
    const auto stats = session.cache_stats();
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_EQ(stats.hits, 8u);
    std::int64_t grouped_count = -1;
    for (const auto& [name, value] : grouped.counters) {
      if (name == "svc.batch.grouped") grouped_count = value;
    }
    EXPECT_EQ(grouped_count, 8) << "threads=" << threads;
  }
}

TEST(Session, CacheHitsServeTheSameAnswer) {
  Session session(SessionOptions{1, 64});
  QueryRequest q;
  q.l = 2.0e-6;
  const auto cold = session.submit(q);
  ASSERT_TRUE(cold.is_ok());
  EXPECT_FALSE(cold->from_cache);
  const auto warm = session.submit(q);
  ASSERT_TRUE(warm.is_ok());
  EXPECT_TRUE(warm->from_cache);
  EXPECT_TRUE(warm->same_answer(*cold));
  const auto stats = session.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // A result-affecting change is a different entry...
  QueryRequest q2 = q;
  q2.threshold = 0.4;
  const auto other = session.submit(q2);
  ASSERT_TRUE(other.is_ok());
  EXPECT_FALSE(other->from_cache);
  EXPECT_FALSE(other->same_answer(*cold));

  // ...and clear_cache invalidates: the next submit recomputes.
  session.clear_cache();
  const auto recomputed = session.submit(q);
  ASSERT_TRUE(recomputed.is_ok());
  EXPECT_FALSE(recomputed->from_cache);
  EXPECT_TRUE(recomputed->same_answer(*cold));
}

TEST(Session, DeadlineZeroReturnsDeadlineExceededWithoutWork) {
  Session session(SessionOptions{1, 64});
  QueryRequest q;
  q.l = 2.0e-6;
  q.deadline_seconds = 0.0;
  const auto r = session.submit(q);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // No partial write: the cache never saw the request.
  EXPECT_EQ(session.cache_stats().hits + session.cache_stats().misses, 0u);
  // The same request with the deadline lifted computes normally (the
  // deadline is not part of the cache key, so nothing stale can surface).
  q.deadline_seconds = Session::kNoDeadline;
  const auto ok = session.submit(q);
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_FALSE(ok->from_cache);
}

TEST(Session, TinyDeadlineExpiresDuringTheRequest) {
  // A 1 ns budget can expire before the solve starts or at the first
  // checkpoint inside it; either way the typed code is the same and no
  // partial result leaks out.
  Session session(SessionOptions{1, 0});
  QueryRequest q;
  q.l = 2.0e-6;
  q.with_exact_delay = true;
  q.deadline_seconds = 1.0e-9;
  const auto r = session.submit(q);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(Session, PreCancelledTokenShortCircuits) {
  Session session(SessionOptions{1, 64});
  CancelSource src;
  src.request_cancel();
  QueryRequest q;
  q.l = 2.0e-6;
  const auto r = session.submit(q, src.token());
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(session.cache_stats().hits + session.cache_stats().misses, 0u);
}

TEST(Session, MidBatchCancellationStopsCleanly) {
  // Cancel from another thread while a batch is in flight: every element
  // must come back either ok or cancelled — no crash, no torn result, and
  // (under TSan) no race.  The batch's own progress triggers the cancel,
  // not a clock: the canceller fires as soon as the registry shows the
  // first exact solve started, when at most one request per pool thread
  // is in flight and the rest of the 64 are still queued.  Which elements
  // finish is schedule-dependent by design; only the outcome set is pinned.
  Session session(SessionOptions{4, 0});
  std::vector<QueryRequest> reqs;
  for (int i = 0; i < 64; ++i) {
    QueryRequest q;
    q.l = 5.0e-6 * i / 63;
    q.with_exact_delay = true;  // slow enough for the cancel to land inside
    reqs.push_back(q);
  }
  const auto exact_calls = [] {
    for (const auto& [name, value] :
         obs::Registry::global().snapshot().counters) {
      if (name == "exact.threshold.calls") return value;
    }
    return std::int64_t{0};
  };
  const std::int64_t calls_before = exact_calls();
  CancelSource src;
  std::atomic<bool> batch_done{false};
  std::thread canceller([&] {
    while (exact_calls() == calls_before && !batch_done.load()) {
      std::this_thread::yield();
    }
    src.request_cancel();
  });
  const auto results = session.submit_batch(reqs, src.token());
  batch_done.store(true);
  canceller.join();
  ASSERT_EQ(results.size(), reqs.size());
  int cancelled = 0;
  for (const auto& r : results) {
    if (r.is_ok()) {
      EXPECT_GT(r->delay_per_length, 0.0);
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kCancelled)
          << r.status().to_string();
      ++cancelled;
    }
  }
  // The cancel fired while at most 4 of the 64 exact-engine solves had
  // started, so at least the tail of the batch must have been cancelled.
  EXPECT_GT(cancelled, 0);
}

TEST(Session, CoupledQueryCarriesExactVictimNoise) {
  Session session(SessionOptions{1, 0});
  const QueryRequest q = coupled_request("100nm", 2);
  const auto r = session.submit(q);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_TRUE(r->has_noise);
  EXPECT_GT(r->peak_noise, 0.0);
  EXPECT_LT(r->peak_noise, 1.0);
  EXPECT_GT(r->noise_width, 0.0);
  EXPECT_FALSE(r->constraint_active);

  // The quiet-neighbour effective line is heavier than the bare line, so
  // the coupled sizing must differ from the scalar answer.
  QueryRequest scalar;
  scalar.technology = q.technology;
  scalar.l = q.l;
  const auto s = session.submit(scalar);
  ASSERT_TRUE(s.is_ok());
  EXPECT_FALSE(s->has_noise);
  EXPECT_NE(r->h, s->h);
  EXPECT_NE(r->delay_per_length, s->delay_per_length);

  // A wider bus doubles the quiet-neighbour Miller load: different answer,
  // different cache entry.
  const auto wide = session.submit(coupled_request("100nm", 3));
  ASSERT_TRUE(wide.is_ok());
  EXPECT_NE(wide->h, r->h);
}

TEST(Session, NoiseConstrainedQueryMeetsTheBudget) {
  Session session(SessionOptions{1, 0});
  const QueryRequest free_q = coupled_request("100nm", 2);
  const auto free_r = session.submit(free_q);
  ASSERT_TRUE(free_r.is_ok()) << free_r.status().to_string();
  ASSERT_GT(free_r->peak_noise, 0.0);

  // Budget below the unconstrained peak: the active-set solve must bind,
  // meet the budget, and upsize the repeaters to get there.
  QueryRequest tight = free_q;
  tight.noise_vmax = 0.6 * free_r->peak_noise;
  const auto tight_r = session.submit(tight);
  ASSERT_TRUE(tight_r.is_ok()) << tight_r.status().to_string();
  EXPECT_TRUE(tight_r->constraint_active);
  EXPECT_TRUE(tight_r->has_noise);
  EXPECT_LE(tight_r->peak_noise, tight.noise_vmax * (1.0 + 1e-6));
  EXPECT_GT(tight_r->k, free_r->k);
  EXPECT_GE(tight_r->delay_per_length, free_r->delay_per_length);

  // A budget above the free-running peak is inactive: bit-identical sizing.
  QueryRequest loose = free_q;
  loose.noise_vmax = 2.0 * free_r->peak_noise;
  const auto loose_r = session.submit(loose);
  ASSERT_TRUE(loose_r.is_ok()) << loose_r.status().to_string();
  EXPECT_FALSE(loose_r->constraint_active);
  EXPECT_EQ(loose_r->h, free_r->h);
  EXPECT_EQ(loose_r->k, free_r->k);
  EXPECT_EQ(loose_r->peak_noise, free_r->peak_noise);
}

TEST(Session, InvalidRequestAndUnknownTechnologyAreTypedErrors) {
  Session session(SessionOptions{1, 0});
  QueryRequest bad;
  bad.threshold = 2.0;
  EXPECT_EQ(session.submit(bad).status().code(),
            StatusCode::kInvalidArgument);
  QueryRequest unknown;
  unknown.technology = "7nm_finfet_magic";
  EXPECT_EQ(session.submit(unknown).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Session, RunScenarioHonorsRegistryAndDeadline) {
  Session session(SessionOptions{2, 0});
  scenario::ScenarioSpec spec;
  spec.scenario = "does_not_exist";
  EXPECT_EQ(session.run_scenario(spec).status().code(),
            StatusCode::kNotFound);

  const scenario::Scenario* fig5 =
      scenario::ScenarioRegistry::global().find("fig5");
  ASSERT_NE(fig5, nullptr);
  scenario::ScenarioSpec quick = scenario::quick_spec(fig5->defaults);

  EXPECT_EQ(session.run_scenario(quick, 0.0).status().code(),
            StatusCode::kDeadlineExceeded);

  const auto r = session.run_scenario(quick);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r->name, "fig5");
  EXPECT_FALSE(r->tables.empty());
}

}  // namespace
}  // namespace rlc::svc
