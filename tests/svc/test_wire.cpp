/// The one-buffer response renderer (wire::render_query, render_ok,
/// render_error and QueryResult::append_members) pinned byte for byte to
/// the io::Json construction in tests/support/response_reference: every
/// result shape, miss and hit, traced and untraced, string, number and
/// absent ids, and errors.  Also pins what the kept answer bytes promise:
/// a hit renders its miss's bytes apart from the delivery members, and a
/// cached answer carries no trace block.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../../src/svc/src/wire.hpp"
#include "rlc/base/status.hpp"
#include "rlc/io/json.hpp"
#include "rlc/svc/query.hpp"
#include "rlc/svc/session.hpp"
#include "support/response_reference.hpp"

namespace rlc::svc {
namespace {

using wire::RequestId;

std::vector<RequestId> ids() {
  return {RequestId{}, RequestId{std::string("req-1")},
          RequestId{std::string("quote\" slash\\ line\n ctl\x01 \xc3\xa9")},
          RequestId{42.0}, RequestId{0.1}, RequestId{-2.5e-300}};
}

/// One request of every result shape the wire has.
std::vector<QueryRequest> shapes() {
  std::vector<QueryRequest> out;
  QueryRequest plain;
  plain.l = 1.0e-6;
  out.push_back(plain);

  QueryRequest exact = plain;
  exact.l = 2.5e-6;
  exact.with_exact_delay = true;
  out.push_back(exact);

  QueryRequest length = plain;
  length.line_length = 0.01;
  out.push_back(length);

  QueryRequest power = plain;
  power.objective = "power";
  power.delay_slack_eps = 0.1;
  out.push_back(power);

  QueryRequest two = plain;
  two.n_conductors = 2;
  two.coupling_cc = 2.5e-11;
  two.coupling_km = 0.3;
  out.push_back(two);

  QueryRequest three = two;
  three.n_conductors = 3;
  three.coupling_km = 0.2;
  out.push_back(three);

  QueryRequest budget = two;  // noise_vmax binds: constraint_active
  budget.noise_vmax = 0.12;
  out.push_back(budget);
  return out;
}

void expect_matches_reference(const rlc::StatusOr<QueryResult>& r,
                              const std::string& what) {
  for (const RequestId& id : ids()) {
    EXPECT_EQ(wire::render_query(id, r), reference::reference_response(id, r))
        << what;
  }
  if (r.is_ok()) {
    EXPECT_EQ(r->to_json().str(), reference::reference_result_json(*r).str())
        << what;
  }
}

TEST(WireRender, EveryResultShapeMatchesTheIoJsonReference) {
  Session session(SessionOptions{1, 64});
  bool saw_power = false, saw_three = false, saw_constraint = false;
  bool saw_exact = false, saw_length = false;
  for (const QueryRequest& shape : shapes()) {
    for (const bool traced : {false, true}) {
      QueryRequest req = shape;
      if (traced) req.trace_id = "trace \"7\"";
      session.clear_cache();
      const rlc::StatusOr<QueryResult> miss = session.submit(req);
      const rlc::StatusOr<QueryResult> hit = session.submit(req);
      ASSERT_TRUE(miss.is_ok()) << miss.status().to_string();
      ASSERT_TRUE(hit.is_ok()) << hit.status().to_string();
      ASSERT_FALSE(miss->from_cache);
      ASSERT_TRUE(hit->from_cache);
      ASSERT_NE(miss->answer_members, nullptr);
      const std::string what = req.cache_key() + (traced ? " traced" : "");
      expect_matches_reference(miss, what + " miss");
      expect_matches_reference(hit, what + " hit");
      saw_power |= miss->has_power;
      saw_three |= shape.n_conductors == 3 && miss->has_noise;
      saw_constraint |= miss->constraint_active;
      saw_exact |= miss->has_exact;
      saw_length |= miss->total_delay > 0.0;
    }
  }
  EXPECT_TRUE(saw_power && saw_three && saw_constraint && saw_exact &&
              saw_length);
}

TEST(WireRender, ResultWithoutKeptBytesRendersFromItsFields) {
  QueryResult r;
  r.h = 0.013637756910716097;
  r.k = 282.58337236595474;
  r.tau = 1.7528673916954732e-10;
  r.delay_per_length = 1.2853047632181566e-08;
  r.newton_iterations = 7;
  r.method = "newton";
  r.wall_seconds = 1.5e-5;
  expect_matches_reference(r, "hand-built");
  r.render_answer();
  expect_matches_reference(r, "rendered");
  r.from_cache = true;
  r.trace_id = "t";
  r.queue_us = 1.25;
  r.cache_us = 0.5;
  expect_matches_reference(r, "hit, traced");
}

TEST(WireRender, ErrorsMatchTheIoJsonReference) {
  for (const rlc::Status& st :
       {rlc::Status::invalid_argument("threshold must be in (0, 1) (got 7)"),
        rlc::Status::not_found("no \"such\"\tthing\n"),
        rlc::Status::no_convergence(""),
        rlc::Status::deadline_exceeded("deadline expired"),
        rlc::Status::cancelled("cancelled \x02"),
        rlc::Status::internal("query failed: \xe2\x82\xac")}) {
    for (const RequestId& id : ids()) {
      EXPECT_EQ(wire::render_error(id, st),
                reference::reference_response(id, st));
    }
    expect_matches_reference(st, st.to_string());
  }
}

TEST(WireRender, OkResultsMatchTheIoJsonReference) {
  io::Json pong;
  pong.set("pong", true);
  pong.set("threads", 4LL);
  io::Json nested;
  nested.set("inner", pong);
  nested.set("label", "a\"b");
  for (const RequestId& id : ids()) {
    for (const io::Json& result : {io::Json{}, pong, nested}) {
      EXPECT_EQ(wire::render_ok(id, result),
                reference::reference_ok(id, result));
    }
  }
}

TEST(WireRender, HitRendersItsMissBytesApartFromDelivery) {
  Session session(SessionOptions{1, 64});
  for (const QueryRequest& req : shapes()) {
    const rlc::StatusOr<QueryResult> miss = session.submit(req);
    const rlc::StatusOr<QueryResult> hit = session.submit(req);
    ASSERT_TRUE(miss.is_ok() && hit.is_ok());
    // Rendered once: the hit shares the bytes its miss rendered.
    EXPECT_EQ(hit->answer_members, miss->answer_members);
    const RequestId id{std::string("same")};
    const std::string a = wire::render_query(id, miss);
    const std::string b = wire::render_query(id, hit);
    const std::string delivery = ", \"from_cache\": ";
    const std::size_t at = a.find(delivery);
    ASSERT_NE(at, std::string::npos);
    EXPECT_EQ(a.substr(0, at), b.substr(0, b.find(delivery)));
    EXPECT_NE(a.find("\"from_cache\": false, \"wall_seconds\": "),
              std::string::npos);
    EXPECT_NE(b.find("\"from_cache\": true, \"wall_seconds\": "),
              std::string::npos);
    EXPECT_EQ(a.substr(a.size() - 2), "}}");
    EXPECT_EQ(b.substr(b.size() - 2), "}}");
  }
}

TEST(WireRender, CachedAnswerCarriesNoTraceBlock) {
  Session session(SessionOptions{1, 64});
  QueryRequest req = shapes().front();
  req.trace_id = "first";
  const rlc::StatusOr<QueryResult> traced_miss = session.submit(req);
  ASSERT_TRUE(traced_miss.is_ok());
  const std::string traced = wire::render_query(RequestId{}, traced_miss);
  EXPECT_NE(traced.find("\"trace_id\": \"first\""), std::string::npos);
  EXPECT_EQ(traced_miss->answer_members->find("trace_id"), std::string::npos);
  EXPECT_EQ(traced_miss->answer_members->find("from_cache"),
            std::string::npos);

  req.trace_id.clear();
  const rlc::StatusOr<QueryResult> plain_hit = session.submit(req);
  ASSERT_TRUE(plain_hit.is_ok());
  EXPECT_TRUE(plain_hit->from_cache);
  EXPECT_TRUE(plain_hit->trace_id.empty());
  const std::string plain = wire::render_query(RequestId{}, plain_hit);
  for (const char* member : {"trace_id", "queue_us", "cache_us", "solve_us"}) {
    EXPECT_EQ(plain.find(member), std::string::npos) << member;
  }

  req.trace_id = "second";
  const rlc::StatusOr<QueryResult> traced_hit = session.submit(req);
  ASSERT_TRUE(traced_hit.is_ok());
  const std::string second = wire::render_query(RequestId{}, traced_hit);
  EXPECT_NE(second.find("\"trace_id\": \"second\""), std::string::npos);
  EXPECT_EQ(second.find("first"), std::string::npos);
}

}  // namespace
}  // namespace rlc::svc
