#include "rlc/svc/serve.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rlc/base/version.hpp"
#include "rlc/io/json_reader.hpp"
#include "rlc/obs/trace.hpp"
#include "rlc/svc/query.hpp"
#include "rlc/svc/slowlog.hpp"

namespace rlc::svc {
namespace {

io::JsonValue response_of(Server& server, const std::string& line) {
  return io::parse_json(server.handle_line(line));
}

class ServeTest : public ::testing::Test {
 protected:
  ServeTest() : session_(SessionOptions{2, 64}), server_(session_) {}
  Session session_;
  Server server_;
};

TEST_F(ServeTest, EveryResponseCarriesSchemaAndVersion) {
  for (const char* line :
       {"{\"op\":\"ping\"}", "{\"op\":\"query\",\"l\":1e-6}", "garbage"}) {
    const io::JsonValue v = response_of(server_, line);
    EXPECT_EQ(v.int_or("schema", -1), kServeSchemaVersion) << line;
    EXPECT_EQ(v.string_or("version", ""), version()) << line;
  }
}

TEST_F(ServeTest, PingAnswersWithThreads) {
  const io::JsonValue v = response_of(server_, "{\"op\":\"ping\",\"id\":7}");
  EXPECT_EQ(v.string_or("status", ""), "ok");
  EXPECT_EQ(v.int_or("code", -1), 0);
  EXPECT_EQ(v.number_or("id", 0.0), 7.0);
  ASSERT_NE(v.find("result"), nullptr);
  EXPECT_EQ(v.find("result")->int_or("threads", 0), 2);
}

TEST_F(ServeTest, QueryResponseCarriesTheAnswer) {
  const io::JsonValue v = response_of(
      server_,
      "{\"op\":\"query\",\"id\":\"a\",\"technology\":\"100nm\",\"l\":2e-6}");
  ASSERT_EQ(v.string_or("status", ""), "ok");
  EXPECT_EQ(v.string_or("id", ""), "a");
  const io::JsonValue* result = v.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->number_or("h", 0.0), 0.0);
  EXPECT_GT(result->number_or("delay_per_length", 0.0), 0.0);
}

TEST_F(ServeTest, MalformedFramingIsRejectedPerLine) {
  // Each broken line gets its own invalid_argument response; the stream
  // never desynchronizes and no exception escapes the server.
  const std::vector<std::string> lines = {
      "",                           // empty line
      "{not json",                  // parse error
      "[1,2,3]",                    // not an object
      "{\"l\": 1e-6}",              // missing op
      "{\"op\":\"frobnicate\"}",    // unknown op
      "{\"op\":\"query\",\"l\":-5}",            // out-of-domain value
      "{\"op\":\"query\",\"id\":{}}",           // bad id kind
      "{\"op\":\"scenario\"}",                  // scenario without spec
      "{\"op\":\"scenario\",\"spec\":{\"threshold\":7}}",  // bad spec
      // An integer field that does not fit an int is rejected, not
      // wrapped to 3 sweep points.
      "{\"op\":\"scenario\",\"spec\":{\"scenario\":\"fig5\",\"quick\":true,"
      "\"sweep\":{\"points\":4294967299}}}",
  };
  const std::vector<std::string> responses = server_.handle_lines(lines);
  ASSERT_EQ(responses.size(), lines.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const io::JsonValue v = io::parse_json(responses[i]);
    EXPECT_EQ(v.string_or("status", ""), "invalid_argument") << lines[i];
    EXPECT_EQ(v.int_or("code", -1), 1) << lines[i];
    EXPECT_FALSE(v.string_or("message", "").empty()) << lines[i];
  }
}

TEST_F(ServeTest, MixedBlockKeepsInputOrder) {
  const std::vector<std::string> lines = {
      "{\"op\":\"query\",\"id\":0,\"l\":1e-6}",
      "{\"op\":\"ping\",\"id\":1}",
      "{\"op\":\"query\",\"id\":2,\"l\":2e-6}",
      "broken",
      "{\"op\":\"query\",\"id\":4,\"l\":3e-6}",
  };
  const std::vector<std::string> responses = server_.handle_lines(lines);
  ASSERT_EQ(responses.size(), 5u);
  for (const std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    EXPECT_EQ(io::parse_json(responses[i]).number_or("id", -1.0),
              static_cast<double>(i))
        << responses[i];
  }
  EXPECT_EQ(io::parse_json(responses[3]).string_or("status", ""),
            "invalid_argument");
}

// Each line of a block runs at its place: a trace start traces the
// queries after it in the same block, and a scrape counts only the queries
// before it, at any max_batch.
TEST(ServeBlock, LinesRunInInputOrderAtAnyMaxBatch) {
  obs::Tracer& tracer = obs::Tracer::global();
  for (const int max_batch : {1, 8}) {
    Session session(SessionOptions{1, 64});
    Server server(session, ServeOptions{max_batch});
    tracer.clear();
    const std::vector<std::string> out = server.handle_lines({
        "{\"op\":\"metrics\",\"format\":\"json\"}",
        "{\"op\":\"trace\",\"action\":\"start\"}",
        "{\"op\":\"query\",\"technology\":\"250nm\",\"l\":3.5e-6}",
        "{\"op\":\"trace\",\"action\":\"dump\"}",
        "{\"op\":\"trace\",\"action\":\"stop\"}",
        "{\"op\":\"metrics\",\"format\":\"json\"}",
    });
    ASSERT_EQ(out.size(), 6u);
    const io::JsonValue dump = io::parse_json(out[3]);
    const io::JsonValue* spans =
        dump.find("result")->find("rollup")->find("spans");
    ASSERT_NE(spans, nullptr) << out[3];
    const io::JsonValue* optimize = spans->find("optimize_rlc");
    ASSERT_NE(optimize, nullptr) << "max_batch " << max_batch << ": " << out[3];
    EXPECT_EQ(optimize->number_or("count", 0.0), 1.0);

    const auto requests = [](const std::string& scrape) {
      return io::parse_json(scrape)
          .find("result")
          ->find("metrics")
          ->find("counters")
          ->number_or("svc.requests", 0.0);
    };
    EXPECT_EQ(requests(out[5]) - requests(out[0]), 1.0)
        << "max_batch " << max_batch;
  }
  tracer.disable();
  tracer.clear();
}

TEST_F(ServeTest, BatchedQueriesMatchSingleShot) {
  const std::string line =
      "{\"op\":\"query\",\"technology\":\"250nm\",\"l\":1.5e-6}";
  Session fresh(SessionOptions{1, 0});
  Server reference(fresh);
  const io::JsonValue single = response_of(reference, line);
  const std::vector<std::string> batch =
      server_.handle_lines({line, line, line});
  for (const std::string& resp : batch) {
    const io::JsonValue v = io::parse_json(resp);
    ASSERT_EQ(v.string_or("status", ""), "ok");
    // Bit-identical numeric payload, batched or not, cached or not.
    EXPECT_EQ(v.find("result")->number_or("h", 0.0),
              single.find("result")->number_or("h", 0.0));
    EXPECT_EQ(v.find("result")->number_or("delay_per_length", 0.0),
              single.find("result")->number_or("delay_per_length", 0.0));
  }
}

TEST_F(ServeTest, CoupledQueryRoundTripsOnTheWire) {
  // A coupled-bus query (schema-transparent extension fields) answers with
  // the noise payload; batched repeats are bit-identical to the single shot.
  const std::string line =
      "{\"op\":\"query\",\"technology\":\"100nm\",\"l\":1e-6,"
      "\"n_conductors\":2,\"coupling_cc\":2.5e-11,\"coupling_km\":0.3}";
  Session fresh(SessionOptions{1, 0});
  Server reference(fresh);
  const io::JsonValue single = response_of(reference, line);
  ASSERT_EQ(single.string_or("status", ""), "ok")
      << single.string_or("message", "");
  const io::JsonValue* result = single.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_GT(result->number_or("peak_noise", 0.0), 0.0);
  EXPECT_GT(result->number_or("noise_width", 0.0), 0.0);
  for (const std::string& resp : server_.handle_lines({line, line})) {
    const io::JsonValue v = io::parse_json(resp);
    ASSERT_EQ(v.string_or("status", ""), "ok");
    EXPECT_EQ(v.find("result")->number_or("h", 0.0),
              result->number_or("h", 0.0));
    EXPECT_EQ(v.find("result")->number_or("peak_noise", 0.0),
              result->number_or("peak_noise", 0.0));
  }
  // Scalar answers never grow the noise fields — the pre-coupling wire
  // shape is preserved byte-for-byte.
  const io::JsonValue scalar = response_of(
      server_, "{\"op\":\"query\",\"technology\":\"100nm\",\"l\":1e-6}");
  ASSERT_EQ(scalar.string_or("status", ""), "ok");
  EXPECT_EQ(scalar.find("result")->find("peak_noise"), nullptr);
}

TEST_F(ServeTest, CoupledFieldsAtScalarArityAreRejectedOnTheWire) {
  const io::JsonValue v = response_of(
      server_, "{\"op\":\"query\",\"l\":1e-6,\"coupling_cc\":1e-11}");
  EXPECT_EQ(v.string_or("status", ""), "invalid_argument");
  EXPECT_EQ(v.int_or("code", -1), 1);
}

TEST_F(ServeTest, XtalkScenarioRunsOnTheWire) {
  const io::JsonValue v = response_of(
      server_,
      "{\"op\":\"scenario\",\"id\":11,\"spec\":{\"scenario\":\"xtalk_quiet\","
      "\"quick\":true}}");
  ASSERT_EQ(v.string_or("status", ""), "ok") << v.string_or("message", "");
  const io::JsonValue* result = v.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->string_or("bench", ""), "xtalk_quiet");
  const io::JsonValue* coupling = result->find("coupling");
  ASSERT_NE(coupling, nullptr);
  EXPECT_EQ(coupling->int_or("n_conductors", 0), 2);
  EXPECT_GE(coupling->number_or("peak_noise", -1.0), 0.0);
}

// A stdin block stamps each line as it parses it, so a query that waits
// behind a scenario in its block reports that wait as queue time.
TEST(ServeBlock, QueueTimeCountsTheWaitInsideABlock) {
  Session session(SessionOptions{1, 64});
  Server server(session);
  const std::vector<std::string> out = server.handle_lines({
      "{\"op\":\"scenario\",\"spec\":{\"scenario\":\"fig5\",\"quick\":true}}",
      "{\"op\":\"query\",\"technology\":\"250nm\",\"l\":1e-6,"
      "\"trace_id\":\"waits-behind-a-scenario\"}",
  });
  ASSERT_EQ(out.size(), 2u);
  ASSERT_EQ(io::parse_json(out[0]).string_or("status", ""), "ok") << out[0];
  const io::JsonValue query = io::parse_json(out[1]);
  ASSERT_EQ(query.string_or("status", ""), "ok") << out[1];
  EXPECT_GT(query.find("result")->number_or("queue_us", -1.0), 0.0) << out[1];
}

TEST_F(ServeTest, DeadlineZeroQueryIsDeadlineExceededOnTheWire) {
  const io::JsonValue v = response_of(
      server_, "{\"op\":\"query\",\"l\":1e-6,\"deadline_seconds\":0}");
  EXPECT_EQ(v.string_or("status", ""), "deadline_exceeded");
  EXPECT_EQ(v.int_or("code", -1), 4);
  EXPECT_EQ(v.find("result"), nullptr);
}

TEST_F(ServeTest, ScenarioOpRunsAQuickScenario) {
  const io::JsonValue v = response_of(
      server_,
      "{\"op\":\"scenario\",\"id\":9,\"spec\":{\"scenario\":\"fig5\","
      "\"quick\":true}}");
  ASSERT_EQ(v.string_or("status", ""), "ok") << v.string_or("message", "");
  const io::JsonValue* result = v.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->string_or("bench", ""), "fig5");
  EXPECT_NE(result->find("tables"), nullptr);
}

TEST_F(ServeTest, UnknownScenarioIsNotFoundOnTheWire) {
  const io::JsonValue v = response_of(
      server_,
      "{\"op\":\"scenario\",\"spec\":{\"scenario\":\"no_such_thing\"}}");
  EXPECT_EQ(v.string_or("status", ""), "not_found");
  EXPECT_EQ(v.int_or("code", -1), 2);
}

TEST_F(ServeTest, MistypedOpFieldsAreRejectedOnTheWire) {
  // The op or an admin-op field of the wrong JSON kind is an
  // invalid_argument naming the field, not its default: a numeric format
  // is no Prometheus scrape, and a quoted chrome flag does not leave the
  // Chrome trace out.  A null keeps the default.
  const struct {
    const char* line;
    const char* message;
  } cases[] = {
      {"{\"op\":5}", "op must be a string"},
      {"{\"op\":\"metrics\",\"format\":7}", "format must be a string"},
      {"{\"op\":\"trace\",\"action\":\"dump\",\"chrome\":\"yes\"}",
       "chrome must be a boolean"},
      {"{\"op\":\"trace\",\"action\":true}", "action must be a string"},
      {"{\"op\":\"scenario\",\"spec\":{\"scenario\":\"fig5\"},"
       "\"deadline_seconds\":\"5\"}",
       "deadline_seconds must be a number"},
  };
  for (const auto& c : cases) {
    const io::JsonValue v = response_of(server_, c.line);
    EXPECT_EQ(v.string_or("status", ""), "invalid_argument") << c.line;
    EXPECT_EQ(v.string_or("message", ""), c.message) << c.line;
  }
  const io::JsonValue scrape =
      response_of(server_, "{\"op\":\"metrics\",\"format\":null}");
  ASSERT_EQ(scrape.string_or("status", ""), "ok");
  EXPECT_EQ(scrape.find("result")->string_or("format", ""), "prometheus");
}

// ---------------------------------------------------------------------------
// Live telemetry on the stdio front end

TEST_F(ServeTest, AdminOpsWorkWithoutAnEventLoop) {
  // The stdio front end exposes the same admin surface as the socket
  // server, minus the server block (there is no event loop to report on).
  const io::JsonValue metrics =
      response_of(server_, "{\"op\":\"metrics\",\"id\":1}");
  ASSERT_EQ(metrics.string_or("status", ""), "ok");
  const io::JsonValue* mr = metrics.find("result");
  ASSERT_NE(mr, nullptr);
  EXPECT_EQ(mr->string_or("format", ""), "prometheus");
  EXPECT_EQ(mr->string_or("content_type", ""), "text/plain; version=0.0.4");

  const io::JsonValue json_fmt = response_of(
      server_, "{\"op\":\"metrics\",\"format\":\"json\",\"id\":2}");
  ASSERT_EQ(json_fmt.string_or("status", ""), "ok");
  EXPECT_NE(json_fmt.find("result")->find("metrics"), nullptr);

  const io::JsonValue stats = response_of(server_, "{\"op\":\"stats\"}");
  ASSERT_EQ(stats.string_or("status", ""), "ok");
  const io::JsonValue* sr = stats.find("result");
  ASSERT_NE(sr, nullptr);
  EXPECT_EQ(sr->find("server"), nullptr);  // no event loop behind stdio
  const io::JsonValue* shards = sr->find("shards");
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->items().size(), 1u);
  EXPECT_NE(sr->find("trace"), nullptr);
  EXPECT_NE(sr->find("slow_queries"), nullptr);

  const io::JsonValue bad = response_of(
      server_, "{\"op\":\"metrics\",\"format\":\"protobuf\"}");
  EXPECT_EQ(bad.string_or("status", ""), "invalid_argument");
}

TEST_F(ServeTest, TracedColdCoupledQueryLandsInTheSlowLogWithStageTimes) {
  // The acceptance path: a client-traced cold coupled query must come back
  // stamped with its trace_id and per-stage timings (solve_us > 0 for a
  // cold solve), and the slow-query log must attribute the same request.
  SlowQueryLog::global().clear();
  const io::JsonValue v = response_of(
      server_,
      "{\"op\":\"query\",\"id\":1,\"technology\":\"100nm\",\"l\":1.1e-6,"
      "\"n_conductors\":2,\"coupling_cc\":2.5e-11,\"coupling_km\":0.25,"
      "\"trace_id\":\"slow-accept-1\"}");
  ASSERT_EQ(v.string_or("status", ""), "ok") << v.string_or("message", "");
  const io::JsonValue* result = v.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->string_or("trace_id", ""), "slow-accept-1");
  EXPECT_GT(result->number_or("solve_us", -1.0), 0.0);
  EXPECT_GE(result->number_or("queue_us", -1.0), 0.0);
  EXPECT_GE(result->number_or("cache_us", -1.0), 0.0);

  const std::vector<SlowQueryLog::Entry> worst = SlowQueryLog::global().worst();
  ASSERT_FALSE(worst.empty());
  const SlowQueryLog::Entry* mine = nullptr;
  for (const auto& e : worst) {
    if (e.trace_id == "slow-accept-1") mine = &e;
  }
  ASSERT_NE(mine, nullptr) << "traced request missing from the slow log";
  EXPECT_EQ(mine->technology, "100nm");
  // The logged hash, taken from the key the session already holds, is the
  // request's own cache_hash().
  QueryRequest req;
  req.technology = "100nm";
  req.l = 1.1e-6;
  req.n_conductors = 2;
  req.coupling_cc = 2.5e-11;
  req.coupling_km = 0.25;
  EXPECT_EQ(mine->cache_hash, req.cache_hash());
  EXPECT_EQ(cache_hash_of(req.cache_key()), req.cache_hash());
  EXPECT_EQ(mine->status, "ok");
  EXPECT_FALSE(mine->from_cache);
  EXPECT_GT(mine->solve_us, 0.0);
  EXPECT_GE(mine->total_us, mine->solve_us);

  // A repeat of the same key is a cache hit: still stamped with ITS OWN
  // trace id, but with solve_us == 0 and from_cache in the log.
  const io::JsonValue hit = response_of(
      server_,
      "{\"op\":\"query\",\"id\":2,\"technology\":\"100nm\",\"l\":1.1e-6,"
      "\"n_conductors\":2,\"coupling_cc\":2.5e-11,\"coupling_km\":0.25,"
      "\"trace_id\":\"slow-accept-2\"}");
  ASSERT_EQ(hit.string_or("status", ""), "ok");
  EXPECT_EQ(hit.find("result")->string_or("trace_id", ""), "slow-accept-2");
  EXPECT_EQ(hit.find("result")->number_or("solve_us", -1.0), 0.0);

  // An untraced repeat sees the cached result WITHOUT any trace leakage
  // from the traced clients that warmed the key.
  const io::JsonValue plain = response_of(
      server_,
      "{\"op\":\"query\",\"id\":3,\"technology\":\"100nm\",\"l\":1.1e-6,"
      "\"n_conductors\":2,\"coupling_cc\":2.5e-11,\"coupling_km\":0.25}");
  ASSERT_EQ(plain.string_or("status", ""), "ok");
  EXPECT_EQ(plain.find("result")->find("trace_id"), nullptr);
  EXPECT_EQ(plain.find("result")->find("solve_us"), nullptr);
  SlowQueryLog::global().clear();
}

TEST_F(ServeTest, SlowLogKeepsTheWorstNOrderedByTotal) {
  SlowQueryLog::global().clear();
  for (int i = 0; i < 50; ++i) {
    SlowQueryLog::Entry e;
    e.trace_id = "t" + std::to_string(i);
    e.status = "ok";
    e.total_us = static_cast<double>(100 + i);
    SlowQueryLog::global().note(e);
  }
  const auto worst = SlowQueryLog::global().worst();
  ASSERT_EQ(worst.size(), SlowQueryLog::kCapacity);
  // Descending by total, and only the top 32 of the 50 survive.
  EXPECT_EQ(worst.front().total_us, 149.0);
  EXPECT_EQ(worst.back().total_us, 118.0);
  for (std::size_t i = 1; i < worst.size(); ++i) {
    EXPECT_LE(worst[i].total_us, worst[i - 1].total_us);
  }
  EXPECT_EQ(SlowQueryLog::global().recorded(), 50u);
  SlowQueryLog::global().clear();
}

}  // namespace
}  // namespace rlc::svc
