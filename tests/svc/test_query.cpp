#include "rlc/svc/query.hpp"

#include <gtest/gtest.h>

#include <string>

#include "rlc/io/json_reader.hpp"
#include "rlc/svc/cache.hpp"
#include "rlc/tline/coupled_line.hpp"

namespace rlc::svc {
namespace {

TEST(QueryRequest, DefaultValidates) {
  EXPECT_TRUE(QueryRequest{}.validate().is_ok());
}

TEST(QueryRequest, ValidateChecksEveryField) {
  const auto invalid = [](auto mutate) {
    QueryRequest q;
    mutate(q);
    return q.validate().code() == StatusCode::kInvalidArgument;
  };
  EXPECT_TRUE(invalid([](QueryRequest& q) { q.technology = ""; }));
  EXPECT_TRUE(invalid([](QueryRequest& q) { q.l = -1.0; }));
  EXPECT_TRUE(invalid([](QueryRequest& q) { q.threshold = 0.0; }));
  EXPECT_TRUE(invalid([](QueryRequest& q) { q.threshold = 1.0; }));
  EXPECT_TRUE(invalid([](QueryRequest& q) { q.max_iterations = 0; }));
  EXPECT_TRUE(invalid([](QueryRequest& q) { q.residual_tolerance = 0.0; }));
  EXPECT_TRUE(invalid([](QueryRequest& q) { q.talbot_points = 2; }));
  EXPECT_TRUE(invalid([](QueryRequest& q) { q.line_length = -0.01; }));
  EXPECT_TRUE(invalid([](QueryRequest& q) { q.deadline_seconds = -1.0; }));
  EXPECT_TRUE(invalid([](QueryRequest& q) { q.n_conductors = 0; }));
  EXPECT_TRUE(invalid([](QueryRequest& q) { q.n_conductors = 4; }));
  EXPECT_TRUE(invalid([](QueryRequest& q) {
    q.n_conductors = 2;
    q.coupling_cc = -1e-12;
  }));
  EXPECT_TRUE(invalid([](QueryRequest& q) {
    q.n_conductors = 2;
    q.coupling_km = 1.0;
  }));
  EXPECT_TRUE(invalid([](QueryRequest& q) {
    q.n_conductors = 2;
    q.noise_vmax = -0.1;
  }));
  // Coupling knobs without a bus: a scalar query must stay bit-identical
  // to the pre-coupling wire, so nonzero coupling fields at n = 1 are a
  // caller error, not a silent no-op.
  EXPECT_TRUE(invalid([](QueryRequest& q) { q.coupling_cc = 1e-12; }));
  EXPECT_TRUE(invalid([](QueryRequest& q) { q.coupling_km = 0.2; }));
  EXPECT_TRUE(invalid([](QueryRequest& q) { q.noise_vmax = 0.1; }));
  // Unknown objective strings are a typed error, never a silent fallback.
  EXPECT_TRUE(invalid([](QueryRequest& q) { q.objective = "minpower"; }));
  EXPECT_TRUE(invalid([](QueryRequest& q) { q.objective = ""; }));
  EXPECT_TRUE(invalid([](QueryRequest& q) { q.objective = "Power"; }));
  EXPECT_TRUE(invalid([](QueryRequest& q) {
    q.objective = "power";
    q.delay_slack_eps = -0.1;
  }));
  // Power applies to the scalar solve only.
  EXPECT_TRUE(invalid([](QueryRequest& q) {
    q.objective = "power";
    q.n_conductors = 2;
  }));
  // A slack without the power objective is a confused request.
  EXPECT_TRUE(invalid([](QueryRequest& q) { q.delay_slack_eps = 0.2; }));
}

TEST(QueryRequest, UnknownObjectiveNamesTheValueOnTheWire) {
  const auto parsed = QueryRequest::from_json(
      io::parse_json("{\"objective\": \"minpower\"}"));
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("minpower"), std::string::npos);
}

TEST(QueryRequest, CouplingKmBoundNarrowsWithTheConductorCount) {
  // l (I + km A) is positive definite only for |km| < 1 on a pair and
  // |km| < 1/sqrt(2) on three lines; the wire names the field, the bound
  // and the count.
  const auto parsed = QueryRequest::from_json(io::parse_json(
      "{\"technology\":\"100nm\",\"l\":1e-6,\"n_conductors\":3,"
      "\"coupling_cc\":2.5e-11,\"coupling_km\":0.8}"));
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  const std::string& msg = parsed.status().message();
  EXPECT_NE(msg.find("coupling_km"), std::string::npos) << msg;
  EXPECT_NE(msg.find("0.7071"), std::string::npos) << msg;
  EXPECT_NE(msg.find("n_conductors = 3"), std::string::npos) << msg;

  const double bound = tline::coupling_km_bound(3);
  const auto valid = [](int n, double km) {
    QueryRequest q;
    q.n_conductors = n;
    q.coupling_cc = 2.5e-11;
    q.coupling_km = km;
    return q.validate().is_ok();
  };
  EXPECT_TRUE(valid(3, 0.999 * bound));
  EXPECT_TRUE(valid(3, -0.999 * bound));
  EXPECT_TRUE(valid(3, 0.70));
  EXPECT_FALSE(valid(3, 1.001 * bound));
  EXPECT_FALSE(valid(3, -1.001 * bound));
  EXPECT_TRUE(valid(2, 0.8));
  EXPECT_TRUE(valid(2, 0.999));
  EXPECT_FALSE(valid(2, 1.0));
}

TEST(QueryRequest, CoupledRequestValidatesAndRoundTrips) {
  QueryRequest q;
  q.technology = "100nm";
  q.l = 1.0e-6;
  q.n_conductors = 3;
  q.coupling_cc = 2.5e-11;
  q.coupling_km = 0.3;
  q.noise_vmax = 0.12;
  ASSERT_TRUE(q.validate().is_ok()) << q.validate().to_string();
  const io::JsonValue v = io::parse_json(q.to_json().str());
  const rlc::StatusOr<QueryRequest> back = QueryRequest::from_json(v);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(*back, q);
}

TEST(QueryRequest, JsonRoundTrip) {
  QueryRequest q;
  q.technology = "250nm";
  q.l = 3.25e-6;
  q.threshold = 0.4;
  q.max_iterations = 33;
  q.with_exact_delay = true;
  q.line_length = 0.01;
  const io::JsonValue v = io::parse_json(q.to_json().str());
  const rlc::StatusOr<QueryRequest> back = QueryRequest::from_json(v);
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(*back, q);
}

TEST(QueryRequest, FromJsonRejectsBadShapes) {
  EXPECT_EQ(QueryRequest::from_json(io::parse_json("[1,2]")).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(QueryRequest::from_json(io::parse_json("{\"l\": \"big\"}"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(QueryRequest::from_json(io::parse_json("{\"threshold\": 2.0}"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryRequest, FromJsonNamesTheFirstBadFieldInFieldOrder) {
  // Fields are read in declaration order and the first bad one is the
  // error, whatever order the line lists them in; validation runs last.
  const auto message = [](const char* line) {
    return QueryRequest::from_json(io::parse_json(line)).status().message();
  };
  EXPECT_EQ(message("{\"trace_id\": 1, \"l\": \"big\"}"), "l must be a number");
  EXPECT_EQ(message("{\"threshold\": 2.0, \"technology\": 7}"),
            "technology must be a string");
  EXPECT_EQ(message("{\"with_exact_delay\": 1, \"max_iterations\": 0.5}"),
            "max_iterations must be an integer");
  EXPECT_EQ(message("{\"objective\": false, \"talbot_points\": 2}"),
            "objective must be a string");
  EXPECT_EQ(message("{\"threshold\": 2.0}"),
            "threshold must be in (0, 1) (got 2)");
}

TEST(QueryRequest, FromJsonRejectsNonIntegralAndOutOfRangeInts) {
  // Integer fields reject fractions and doubles outside int range; the
  // out-of-range case must produce a clean Status, not a float-cast UB.
  for (const char* line : {
           "{\"max_iterations\": 3.5}",
           "{\"max_iterations\": 1e300}",
           "{\"max_iterations\": -1e300}",
           "{\"max_iterations\": 2147483648}",
           "{\"talbot_points\": 1e19}",
       }) {
    EXPECT_EQ(QueryRequest::from_json(io::parse_json(line)).status().code(),
              StatusCode::kInvalidArgument)
        << line;
  }
  // The extremes that do fit still parse.
  const auto max_ok =
      QueryRequest::from_json(io::parse_json("{\"max_iterations\": 2147483647}"));
  ASSERT_TRUE(max_ok.is_ok()) << max_ok.status().to_string();
  EXPECT_EQ(max_ok->max_iterations, 2147483647);
}

TEST(QueryRequest, CacheKeyIgnoresDeadlineOnly) {
  QueryRequest a;
  QueryRequest b = a;
  b.deadline_seconds = 0.25;  // delivery option: same answer, same key
  EXPECT_EQ(a.cache_key(), b.cache_key());
  EXPECT_EQ(a.cache_hash(), b.cache_hash());

  // Every result-affecting field must split the key.
  const auto differs = [&](auto mutate) {
    QueryRequest q = a;
    mutate(q);
    return q.cache_key() != a.cache_key();
  };
  EXPECT_TRUE(differs([](QueryRequest& q) { q.technology = "250nm"; }));
  EXPECT_TRUE(differs([](QueryRequest& q) { q.l = 1.0e-6; }));
  EXPECT_TRUE(differs([](QueryRequest& q) { q.threshold = 0.9; }));
  EXPECT_TRUE(differs([](QueryRequest& q) { q.max_iterations = 81; }));
  EXPECT_TRUE(differs([](QueryRequest& q) { q.residual_tolerance = 1e-8; }));
  EXPECT_TRUE(differs([](QueryRequest& q) { q.with_exact_delay = true; }));
  EXPECT_TRUE(differs([](QueryRequest& q) { q.talbot_points = 64; }));
  EXPECT_TRUE(differs([](QueryRequest& q) { q.line_length = 0.02; }));
  EXPECT_TRUE(differs([](QueryRequest& q) { q.n_conductors = 2; }));
  EXPECT_TRUE(differs([](QueryRequest& q) { q.coupling_cc = 1e-11; }));
  EXPECT_TRUE(differs([](QueryRequest& q) { q.coupling_km = 0.3; }));
  EXPECT_TRUE(differs([](QueryRequest& q) { q.noise_vmax = 0.1; }));
  EXPECT_TRUE(differs([](QueryRequest& q) { q.objective = "power"; }));
  EXPECT_TRUE(differs([](QueryRequest& q) {
    q.objective = "power";
    q.delay_slack_eps = 0.10;
  }));
}

// Shard placement hashes the key and the slow-query log reports the hash,
// so the bytes of both are pinned, number rendering included.
TEST(QueryRequest, CacheKeyAndHashArePinned) {
  QueryRequest q;
  q.technology = "250nm";
  q.l = 2.5e-6;
  q.threshold = 0.4;
  q.line_length = 0.01;
  q.n_conductors = 2;
  q.coupling_cc = 2.5e-11;
  q.coupling_km = 0.3;
  q.noise_vmax = 0.12;
  EXPECT_EQ(q.cache_key(),
            "tech=250nm;l=2.5000000000000002e-06;f=0.40000000000000002;it=80;"
            "tol=1.0000000000000001e-09;exact=0;tp=48;L=0.01;nc=2;"
            "cc=2.5000000000000001e-11;km=0.29999999999999999;vmax=0.12");
  EXPECT_EQ(q.cache_hash(), 18115677291353557648ULL);

  QueryRequest p;
  p.l = 1e-6;
  p.objective = "power";
  p.delay_slack_eps = 0.1;
  EXPECT_EQ(p.cache_key(),
            "tech=100nm;l=9.9999999999999995e-07;f=0.5;it=80;"
            "tol=1.0000000000000001e-09;exact=0;tp=48;L=0;nc=1;cc=0;km=0;"
            "vmax=0;obj=power;eps=0.10000000000000001");
  EXPECT_EQ(p.cache_hash(), 2202144102097708109ULL);
}

// The objective extension is schema-transparent: the default-objective key,
// hash, and wire body are byte-identical to the pre-objective wire (old
// cache entries and rlc_load replays stay valid), and only non-default
// objectives append the obj/eps block.
TEST(QueryRequest, ObjectiveIsSchemaTransparent) {
  QueryRequest a;
  EXPECT_EQ(a.cache_key().find("obj="), std::string::npos);
  EXPECT_EQ(a.to_json().str().find("objective"), std::string::npos);
  EXPECT_EQ(a.to_json().str().find("delay_slack_eps"), std::string::npos);

  QueryRequest p = a;
  p.objective = "power";
  p.delay_slack_eps = 0.10;
  ASSERT_TRUE(p.validate().is_ok()) << p.validate().to_string();
  EXPECT_NE(p.cache_key().find(";obj=power;eps="), std::string::npos);
  const std::string wire = p.to_json().str();
  EXPECT_NE(wire.find("\"objective\": \"power\""), std::string::npos);
  EXPECT_NE(wire.find("\"delay_slack_eps\": 0.1"), std::string::npos);

  const auto back = QueryRequest::from_json(io::parse_json(wire));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(*back, p);
}

// Power-block serialization mirrors the noise/trace blocks: present only
// when the answer carries power numbers, so delay-objective responses stay
// byte-identical to the pre-power wire.
TEST(QueryResult, PowerBlockOnlyWhenPowered) {
  QueryResult r;
  r.h = 1.0e-3;
  EXPECT_EQ(r.to_json().str().find("power_total"), std::string::npos);

  QueryResult p = r;
  p.has_power = true;
  p.power_total = 0.05;
  p.power_dynamic = 0.04;
  p.power_short_circuit = 0.008;
  p.power_leakage = 0.002;
  p.delay_ref = 1.2e-8;
  p.power_ref = 0.06;
  p.power_constraint_active = true;
  const std::string wire = p.to_json().str();
  EXPECT_NE(wire.find("\"power_total\": 0.05"), std::string::npos);
  EXPECT_NE(wire.find("\"power_constraint_active\": true"),
            std::string::npos);
  // The power numbers are part of the answer, not delivery metadata.
  EXPECT_FALSE(p.same_answer(r));
  QueryResult q = p;
  q.power_total = 0.051;
  EXPECT_FALSE(q.same_answer(p));
}

// trace_id is delivery metadata like deadline_seconds: it must never split
// the cache key (a traced and an untraced client share the same cached
// solve) and must stay invisible on the wire unless the client sent one —
// rlc_load splices to_json() bodies byte-for-byte, so this is load-bearing.
TEST(QueryRequest, TraceIdIsCacheKeyAndSchemaTransparent) {
  QueryRequest a;
  QueryRequest b = a;
  b.trace_id = "req-7";
  EXPECT_EQ(a.cache_key(), b.cache_key());
  EXPECT_EQ(a.cache_hash(), b.cache_hash());

  // Untraced requests render without any trace field at all.
  EXPECT_EQ(a.to_json().str().find("trace_id"), std::string::npos);
  const std::string traced = b.to_json().str();
  EXPECT_NE(traced.find("\"trace_id\": \"req-7\""), std::string::npos);

  // Round trip keeps the id.
  const auto back = QueryRequest::from_json(io::parse_json(traced));
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back->trace_id, "req-7");
  EXPECT_EQ(back->cache_key(), a.cache_key());
}

TEST(QueryRequest, TraceIdLengthIsCapped) {
  QueryRequest q;
  q.trace_id = std::string(QueryRequest::kMaxTraceIdLength, 'x');
  EXPECT_TRUE(q.validate().is_ok());
  q.trace_id += 'x';
  EXPECT_EQ(q.validate().code(), StatusCode::kInvalidArgument);
}

// Untraced results render without the per-stage timing block, so existing
// clients see byte-identical responses; traced results carry it.
TEST(QueryResult, TraceBlockOnlyWhenTraced) {
  QueryResult r;
  r.h = 1.0e-3;
  const std::string plain = r.to_json().str();
  EXPECT_EQ(plain.find("trace_id"), std::string::npos);
  EXPECT_EQ(plain.find("queue_us"), std::string::npos);

  r.trace_id = "t1";
  r.queue_us = 12.5;
  r.cache_us = 1.5;
  r.solve_us = 800.0;
  const std::string traced = r.to_json().str();
  EXPECT_NE(traced.find("\"trace_id\": \"t1\""), std::string::npos);
  EXPECT_NE(traced.find("\"queue_us\": 12.5"), std::string::npos);
  EXPECT_NE(traced.find("\"cache_us\": 1.5"), std::string::npos);
  EXPECT_NE(traced.find("\"solve_us\": 800"), std::string::npos);

  // The trace block must not disturb answer equality (it is delivery
  // metadata, not physics).
  QueryResult untraced = r;
  untraced.trace_id.clear();
  untraced.queue_us = untraced.cache_us = untraced.solve_us = 0.0;
  EXPECT_TRUE(r.same_answer(untraced));
}

TEST(LruCache, HitMissAndRecency) {
  LruCache<int> cache(2);
  EXPECT_FALSE(cache.get("a").has_value());
  cache.put("a", 1);
  cache.put("b", 2);
  EXPECT_EQ(cache.get("a").value_or(-1), 1);  // refreshes "a"
  cache.put("c", 3);                          // evicts "b" (LRU)
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_EQ(cache.get("a").value_or(-1), 1);
  EXPECT_EQ(cache.get("c").value_or(-1), 3);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 2u);
}

TEST(LruCache, PutRefreshesExistingKey) {
  LruCache<int> cache(2);
  cache.put("a", 1);
  cache.put("b", 2);
  cache.put("a", 10);  // update, not insert
  cache.put("c", 3);   // evicts "b" — "a" was refreshed by the put
  EXPECT_EQ(cache.get("a").value_or(-1), 10);
  EXPECT_FALSE(cache.get("b").has_value());
}

TEST(LruCache, ZeroCapacityDisablesStorage) {
  LruCache<int> cache(0);
  cache.put("a", 1);
  EXPECT_FALSE(cache.get("a").has_value());
  EXPECT_EQ(cache.stats().size, 0u);
}

TEST(LruCache, ClearInvalidatesEverything) {
  LruCache<int> cache(8);
  cache.put("a", 1);
  cache.clear();
  EXPECT_FALSE(cache.get("a").has_value());
}

}  // namespace
}  // namespace rlc::svc
