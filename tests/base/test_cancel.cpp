#include "rlc/base/cancel.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>

namespace rlc {
namespace {

TEST(CancelToken, DefaultNeverFires) {
  CancelToken t;
  EXPECT_FALSE(t.can_fire());
  EXPECT_FALSE(t.cancel_requested());
}

TEST(CancelSource, IsStickyAndSharedAcrossCopies) {
  CancelSource src;
  CancelToken before = src.token();
  EXPECT_FALSE(before.cancel_requested());
  src.request_cancel();
  CancelToken after = src.token();
  EXPECT_TRUE(before.cancel_requested());
  EXPECT_TRUE(after.cancel_requested());
  src.request_cancel();  // idempotent
  EXPECT_TRUE(src.cancel_requested());
}

TEST(Deadline, NoneNeverExpires) {
  EXPECT_FALSE(Deadline::none().has_deadline());
  EXPECT_FALSE(Deadline::none().expired());
  EXPECT_FALSE(Deadline::after(
                   std::numeric_limits<double>::infinity()).has_deadline());
  EXPECT_FALSE(Deadline::after(1e12).has_deadline());  // absurd == none
}

TEST(Deadline, ZeroIsAlreadyExpired) {
  const Deadline d = Deadline::after(0.0);
  EXPECT_TRUE(d.has_deadline());
  EXPECT_TRUE(d.expired());
}

TEST(Deadline, FutureDeadlineNotYetExpired) {
  EXPECT_FALSE(Deadline::after(60.0).expired());
}

TEST(Checkpoint, NoScopeIsANoOp) {
  EXPECT_NO_THROW(checkpoint());
  EXPECT_FALSE(stop_requested());
}

TEST(Checkpoint, ThrowsCancelledWhenTokenFires) {
  CancelSource src;
  ExecScope scope(src.token(), Deadline::none());
  EXPECT_NO_THROW(checkpoint());
  src.request_cancel();
  EXPECT_TRUE(stop_requested());
  try {
    checkpoint();
    FAIL() << "checkpoint() did not throw";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.code(), StatusCode::kCancelled);
    EXPECT_EQ(e.to_status().code(), StatusCode::kCancelled);
  }
}

TEST(Checkpoint, ThrowsDeadlineExceededWhenExpired) {
  ExecScope scope(CancelToken{}, Deadline::after(0.0));
  try {
    checkpoint();
    FAIL() << "checkpoint() did not throw";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(ExecScope, NestsAndRestores) {
  CancelSource outer;
  ExecScope a(outer.token(), Deadline::none());
  {
    // Inner scope replaces the outer: an un-cancelled inner token masks the
    // fired outer one until the inner scope unwinds.
    CancelSource inner;
    ExecScope b(inner.token(), Deadline::none());
    outer.request_cancel();
    EXPECT_FALSE(stop_requested());
  }
  EXPECT_TRUE(stop_requested());
}

TEST(ExecScope, StateIsPerThread) {
  CancelSource src;
  src.request_cancel();
  ExecScope scope(src.token(), Deadline::none());
  ASSERT_TRUE(stop_requested());
  bool seen_on_other_thread = true;
  std::thread([&] { seen_on_other_thread = stop_requested(); }).join();
  EXPECT_FALSE(seen_on_other_thread);  // scopes do not leak across threads
}

TEST(CurrentExecState, SnapshotsTheActiveScope) {
  EXPECT_FALSE(current_exec_state().armed());
  CancelSource src;
  ExecScope scope(src.token(), Deadline::none());
  ExecState snap = current_exec_state();
  EXPECT_TRUE(snap.armed());
  // The snapshot can be re-installed elsewhere (what the pool does) and
  // still observes the original token.
  src.request_cancel();
  bool fired_on_other_thread = false;
  std::thread([&] {
    ExecScope carried(snap);
    fired_on_other_thread = stop_requested();
  }).join();
  EXPECT_TRUE(fired_on_other_thread);
}

/// at_boundary around a body that throws `e`.
template <typename E>
Status boundary_status(const E& e) {
  return at_boundary<int>([&]() -> StatusOr<int> { throw e; }).status();
}

TEST(AtBoundary, MapsEveryEscapeToItsStatus) {
  const Status cancelled =
      boundary_status(CancelledError(StatusCode::kCancelled));
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled.message(), "cancelled");
  const Status late =
      boundary_status(CancelledError(StatusCode::kDeadlineExceeded));
  EXPECT_EQ(late.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late.message(), "deadline exceeded");
  const Status bad = boundary_status(std::invalid_argument("bad h"));
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.message(), "bad h");
  const Status domain = boundary_status(std::domain_error("node out of range"));
  EXPECT_EQ(domain.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(domain.message(), "node out of range");
  const Status other = boundary_status(std::runtime_error("lost"));
  EXPECT_EQ(other.code(), StatusCode::kInternal);
  EXPECT_EQ(other.message(), "lost");
}

TEST(AtBoundary, PassesAReturnedValueOrStatusThrough) {
  const StatusOr<int> value = at_boundary<int>([] { return 7; });
  ASSERT_TRUE(value.is_ok());
  EXPECT_EQ(*value, 7);
  const StatusOr<int> failed = at_boundary<int>([]() -> StatusOr<int> {
    return Status::no_convergence("Newton stalled");
  });
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kNoConvergence);
  EXPECT_EQ(failed.status().message(), "Newton stalled");
}

}  // namespace
}  // namespace rlc
