// Status and Result<T>: error propagation without exceptions.
//
// The wvote library reports recoverable failures (unavailable quorum, lock
// conflicts, timeouts, crashed hosts) through Status values rather than
// exceptions, matching common systems-code practice. Result<T> couples a
// Status with a payload for functions that produce a value.
//
// Status is deliberately TRIVIALLY COPYABLE: the code plus a fixed inline
// message buffer. This keeps error paths allocation-free and makes Status
// values safe to pass through coroutine machinery even under the GCC 12
// parameter-copy bugs documented in src/sim/task.h (a bitwise copy of a
// trivially copyable value is always correct).

#ifndef WVOTE_SRC_COMMON_STATUS_H_
#define WVOTE_SRC_COMMON_STATUS_H_

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "src/common/check.h"

namespace wvote {

// Canonical error space for the library. Kept deliberately small: each code
// maps to a distinct caller reaction.
enum class StatusCode {
  kOk = 0,
  kUnavailable,         // not enough live representatives for a quorum
  kTimeout,             // an RPC or quorum gather exceeded its deadline
  kAborted,             // transaction aborted (deadlock avoidance, crash, ...)
  kConflict,            // lock conflict that the caller may retry
  kNotFound,            // no such suite / object / host
  kFailedPrecondition,  // operation illegal in current state
  kInvalidArgument,     // malformed configuration or request
  kCorruption,          // stable storage failed integrity checks
  kInternal,            // invariant violation surfaced as an error
};

// Human-readable name for a status code ("OK", "UNAVAILABLE", ...).
const char* StatusCodeName(StatusCode code);

// A success-or-error value. Trivially copyable; diagnostic messages longer
// than the inline buffer are truncated.
class [[nodiscard]] Status {
 public:
  static constexpr size_t kMaxMessage = 111;  // bytes, excluding terminator

  Status() : code_(StatusCode::kOk) { message_[0] = '\0'; }

  Status(StatusCode code, const char* message) : code_(code) { SetMessage(message); }
  Status(StatusCode code, const std::string& message) : code_(code) {
    SetMessage(message.c_str());
  }
  // The concatenation of `parts`, written straight into the inline buffer:
  // the same text and truncation as concatenating them into one string
  // first, without the heap.
  Status(StatusCode code, std::initializer_list<std::string_view> parts) : code_(code) {
    size_t n = 0;
    for (std::string_view part : parts) {
      const size_t take = std::min(part.size(), kMaxMessage - n);
      std::memcpy(message_ + n, part.data(), take);
      n += take;
    }
    message_[n] = '\0';
  }

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  std::string message() const { return message_; }

  // "CODE: message" rendering for logs and test failure output.
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) { return a.code_ == b.code_; }

 private:
  void SetMessage(const char* message) {
    // Copies only up to the terminator (strncpy would zero-fill the rest of
    // the buffer on every error built).
    const size_t n = strnlen(message, kMaxMessage);
    std::memcpy(message_, message, n);
    message_[n] = '\0';
  }

  StatusCode code_;
  char message_[kMaxMessage + 1];
};

static_assert(std::is_trivially_copyable_v<Status>);

Status UnavailableError(const std::string& message);
Status TimeoutError(const std::string& message);
Status AbortedError(const std::string& message);
Status ConflictError(const std::string& message);
Status NotFoundError(const std::string& message);
Status FailedPreconditionError(const std::string& message);
Status InvalidArgumentError(const std::string& message);
Status CorruptionError(const std::string& message);
Status InternalError(const std::string& message);

// A value of type T or a non-OK Status. Dereferencing a failed Result aborts.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : rep_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : rep_(status) {  // NOLINT(google-explicit-constructor)
    WVOTE_CHECK_MSG(!status.ok(), "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  Status status() const { return ok() ? Status::Ok() : std::get<Status>(rep_); }

  T& value() & {
    WVOTE_CHECK_MSG(ok(), "Result::value() on error");
    return std::get<T>(rep_);
  }
  const T& value() const& {
    WVOTE_CHECK_MSG(ok(), "Result::value() on error");
    return std::get<T>(rep_);
  }
  T&& value() && {
    WVOTE_CHECK_MSG(ok(), "Result::value() on error");
    return std::get<T>(std::move(rep_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> rep_;
};

// Propagates a non-OK status to the caller. Usable in functions returning
// Status or any type constructible from Status. Coroutines use
// WVOTE_CO_RETURN_IF_ERROR.
#define WVOTE_RETURN_IF_ERROR(expr)      \
  do {                                   \
    ::wvote::Status _st = (expr);        \
    if (!_st.ok()) {                     \
      return _st;                        \
    }                                    \
  } while (0)

#define WVOTE_CO_RETURN_IF_ERROR(expr)   \
  do {                                   \
    ::wvote::Status _st = (expr);        \
    if (!_st.ok()) {                     \
      co_return _st;                     \
    }                                    \
  } while (0)

}  // namespace wvote

#endif  // WVOTE_SRC_COMMON_STATUS_H_
