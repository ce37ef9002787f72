#pragma once

/// \file cancel.hpp
/// Cooperative cancellation and deadlines for long-running solves.
///
/// Design: the request layer (rlc::svc) installs a per-task ExecScope —
/// a cancellation token plus an absolute deadline — into a thread-local
/// slot; the numeric hot loops (Newton, Brent, Talbot) call
/// rlc::checkpoint() at ITERATION boundaries.  When no scope is installed
/// (every standalone/CLI use) the checkpoint is one thread-local load and
/// a predictable branch — effectively free — so the solvers stay untouched
/// for non-serving callers.  When a scope is active and its token fires or
/// its deadline passes, the checkpoint throws rlc::CancelledError, which
/// unwinds the solve and is converted to a deadline_exceeded / cancelled
/// Status at the public boundary (never escaping it).
///
/// Cancellation is COOPERATIVE: a solve stops at the next iteration
/// boundary, never mid-expression, so no partial state is ever observed.

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <stdexcept>

#include "rlc/base/status.hpp"

namespace rlc {

/// Thrown by checkpoint(); carries whether the stop was a cancellation or
/// a deadline expiry.  Internal unwind mechanism only — the svc boundary
/// converts it to a Status.
class CancelledError : public std::runtime_error {
 public:
  explicit CancelledError(StatusCode code)
      : std::runtime_error(code == StatusCode::kDeadlineExceeded
                               ? "deadline exceeded"
                               : "cancelled"),
        code_(code) {}
  StatusCode code() const { return code_; }
  /// The matching boundary Status.
  Status to_status() const { return {code_, what()}; }

 private:
  StatusCode code_;
};

class CancelSource;

/// Cheap, copyable view of a cancellation flag.  A default-constructed
/// token can never fire.
class CancelToken {
 public:
  CancelToken() = default;

  bool can_fire() const { return flag_ != nullptr; }
  bool cancel_requested() const {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<std::atomic<bool>> flag)
      : flag_(std::move(flag)) {}
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Owner side of a cancellation flag.  request_cancel() is sticky and
/// thread-safe; tokens handed out before or after see it.
class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  CancelToken token() const { return CancelToken{flag_}; }
  void request_cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Absolute deadline on the steady clock.  Deadline::none() never expires;
/// after(0) is already expired — "spend no time at all" is a valid budget.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;  ///< none
  static Deadline none() { return {}; }
  static Deadline at(Clock::time_point tp) { return Deadline{tp}; }
  /// Expires `seconds` from now; infinity (or any non-finite / huge value)
  /// means none.
  static Deadline after(double seconds);

  bool has_deadline() const { return armed_; }
  bool expired() const { return armed_ && Clock::now() >= at_; }
  Clock::time_point time_point() const { return at_; }

 private:
  explicit Deadline(Clock::time_point tp) : at_(tp), armed_(true) {}
  Clock::time_point at_{};
  bool armed_ = false;
};

/// Snapshot of a thread's active execution scope — copyable, so a parallel
/// loop can carry the submitting thread's {token, deadline} onto its worker
/// threads (rlc::exec does exactly that; see ThreadPool::parallel_for).
struct ExecState {
  CancelToken token;
  Deadline deadline;

  bool armed() const {
    return token.can_fire() || deadline.has_deadline();
  }
};

/// The calling thread's current scope (an unarmed ExecState when none).
ExecState current_exec_state();

/// RAII guard installing {token, deadline} as the calling thread's active
/// execution scope.  Nests: the previous scope is restored on destruction.
/// Install one per request-task, on the thread that runs the solve.
class ExecScope {
 public:
  ExecScope(CancelToken token, Deadline deadline);
  explicit ExecScope(ExecState state);
  ~ExecScope();

  ExecScope(const ExecScope&) = delete;
  ExecScope& operator=(const ExecScope&) = delete;

 private:
  struct State {
    ExecState state;
    bool armed = false;  ///< token can fire or deadline set
  };
  State installed_;
  const State* previous_;

  friend void checkpoint();
  friend bool stop_requested();
  friend ExecState current_exec_state();
  static const State*& current();
};

/// Cooperative stop point for iterative solvers.  No active scope: one
/// thread-local load + branch (zero cost when unset).  Active scope: throws
/// CancelledError(kCancelled) if the token fired, then
/// CancelledError(kDeadlineExceeded) if the deadline passed.
void checkpoint();

/// Non-throwing probe, for code that prefers to drain gracefully.
bool stop_requested();

/// The one exception boundary (DESIGN.md "Errors"): run `body`, which
/// returns a StatusOr<T> (or a T), and turn whatever escapes it into a
/// typed Status — CancelledError into cancelled / deadline_exceeded,
/// std::invalid_argument and std::domain_error into invalid_argument, any
/// other std::exception into internal with its what() — so no exception
/// crosses a function that returns StatusOr.  A Status the body returns
/// passes through unchanged.
template <typename T, typename Body>
StatusOr<T> at_boundary(Body&& body) {
  try {
    return body();
  } catch (const CancelledError& e) {
    return e.to_status();
  } catch (const std::invalid_argument& e) {
    return Status::invalid_argument(e.what());
  } catch (const std::domain_error& e) {
    return Status::invalid_argument(e.what());
  } catch (const std::exception& e) {
    return Status::internal(e.what());
  }
}

}  // namespace rlc
