#pragma once

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <variant>

/// \file status.h
/// Error propagation primitives in the Arrow/RocksDB idiom: functions that can
/// fail return `Status` (or `Result<T>` for value-producing calls) instead of
/// throwing. Exceptions are never thrown across public API boundaries.

namespace amalur {

/// Machine-readable category of a `Status`.
enum class StatusCode : int8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kUnimplemented = 6,
  kIOError = 7,
  kInternal = 8,
};

/// Returns the canonical lower-case name of a status code, e.g. "invalid argument".
const char* StatusCodeToString(StatusCode code);

/// Outcome of an operation: a code plus a human-readable message.
///
/// `Status` is cheap to copy in the OK case (no allocation). Builder helpers
/// accept any streamable arguments:
///
///     return Status::InvalidArgument("row ", i, " out of range [0, ", n, ")");
///
/// `Status` (and `Result<T>`) are `[[nodiscard]]`: the compiler rejects a
/// silently dropped error under `-Werror`. Call sites that genuinely do not
/// care must say so with a `(void)` cast and a comment explaining why the
/// failure is ignorable.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Factory for the success value.
  static Status OK() { return Status(); }

  template <typename... Args>
  static Status InvalidArgument(Args&&... args) {
    return Make(StatusCode::kInvalidArgument, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status NotFound(Args&&... args) {
    return Make(StatusCode::kNotFound, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status AlreadyExists(Args&&... args) {
    return Make(StatusCode::kAlreadyExists, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status OutOfRange(Args&&... args) {
    return Make(StatusCode::kOutOfRange, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status FailedPrecondition(Args&&... args) {
    return Make(StatusCode::kFailedPrecondition, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status Unimplemented(Args&&... args) {
    return Make(StatusCode::kUnimplemented, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status IOError(Args&&... args) {
    return Make(StatusCode::kIOError, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status Internal(Args&&... args) {
    return Make(StatusCode::kInternal, std::forward<Args>(args)...);
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const { return code_ == StatusCode::kInvalidArgument; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsUnimplemented() const { return code_ == StatusCode::kUnimplemented; }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }

  /// "OK" or "<code name>: <message>".
  std::string ToString() const;

  /// Prepends context to the message of a non-OK status; no-op on OK.
  Status WithContext(const std::string& context) const;

 private:
  template <typename... Args>
  static Status Make(StatusCode code, Args&&... args) {
    std::ostringstream out;
    (out << ... << std::forward<Args>(args));
    return Status(code, out.str());
  }

  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

/// A value or an error. `Result<T>` is how fallible value-producing functions
/// return: check `ok()` (or propagate with `AMALUR_ASSIGN_OR_RETURN`) before
/// dereferencing.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from a value: `return some_t;`.
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit from a non-OK status: `return Status::NotFound(...)`.
  Result(Status status) : repr_(std::move(status)) {  // NOLINT(runtime/explicit)
    if (this->status().ok()) {
      repr_ = Status::Internal("Result constructed from OK status without a value");
    }
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  /// The status: OK when a value is held.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(repr_);
  }

  /// The held value; must only be called when `ok()`.
  const T& ValueOrDie() const& { return std::get<T>(repr_); }
  T& ValueOrDie() & { return std::get<T>(repr_); }
  T&& ValueOrDie() && { return std::get<T>(std::move(repr_)); }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

  /// The value, or `fallback` when this holds an error.
  T ValueOr(T fallback) const {
    return ok() ? std::get<T>(repr_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> repr_;
};

}  // namespace amalur

/// Propagates a non-OK `Status` to the caller.
#define AMALUR_RETURN_NOT_OK(expr)                  \
  do {                                              \
    ::amalur::Status _status = (expr);              \
    if (!_status.ok()) return _status;              \
  } while (false)

#define AMALUR_CONCAT_IMPL(a, b) a##b
#define AMALUR_CONCAT(a, b) AMALUR_CONCAT_IMPL(a, b)

/// Evaluates a `Result<T>` expression; on error returns the status, otherwise
/// move-assigns the value into `lhs` (which may be a declaration).
#define AMALUR_ASSIGN_OR_RETURN(lhs, expr)                          \
  AMALUR_ASSIGN_OR_RETURN_IMPL(AMALUR_CONCAT(_result_, __LINE__), lhs, expr)

// `lhs` may be a declaration (`auto x`), so it cannot be parenthesized.
#define AMALUR_ASSIGN_OR_RETURN_IMPL(result_name, lhs, expr) \
  auto result_name = (expr);                                 \
  if (!result_name.ok()) return result_name.status();        \
  lhs = std::move(result_name).ValueOrDie()  // NOLINT(bugprone-macro-parentheses)
