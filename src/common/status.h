// Status / Result error-handling primitives (RocksDB/Arrow idiom: no
// exceptions cross public API boundaries).
#ifndef DISSODB_COMMON_STATUS_H_
#define DISSODB_COMMON_STATUS_H_

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace dissodb {

/// \brief Outcome of an operation that can fail without a payload.
///
/// A default-constructed Status is OK. Failed statuses carry a code and a
/// human-readable message.
class Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kAlreadyExists,
    kOutOfRange,
    kUnimplemented,
    kInternal,
    /// The caller's cancellation signal fired (e.g. a deadline passed)
    /// before the operation finished: no result, and not a failure of the
    /// input or of a budget.
    kCancelled,
  };

  Status() : code_(Code::kOk) {}
  Status(Code code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(Code::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(Code::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(Code::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(Code::kInternal, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(Code::kCancelled, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return msg_; }

  std::string ToString() const {
    if (ok()) return "OK";
    return CodeName(code_) + ": " + msg_;
  }

 private:
  static std::string CodeName(Code c) {
    switch (c) {
      case Code::kOk: return "OK";
      case Code::kInvalidArgument: return "InvalidArgument";
      case Code::kNotFound: return "NotFound";
      case Code::kAlreadyExists: return "AlreadyExists";
      case Code::kOutOfRange: return "OutOfRange";
      case Code::kUnimplemented: return "Unimplemented";
      case Code::kInternal: return "Internal";
      case Code::kCancelled: return "Cancelled";
    }
    return "Unknown";
  }

  Code code_;
  std::string msg_;
};

/// \brief Either a value of type T or an error Status.
///
/// Minimal StatusOr. `ok()` must be checked before dereferencing; violating
/// this is an assertion failure in debug builds and undefined in release.
template <typename T>
class Result {
 public:
  Result(T value) : v_(std::move(value)) {}          // NOLINT(runtime/explicit)
  Result(Status status) : v_(std::move(status)) {    // NOLINT(runtime/explicit)
    assert(!std::get<Status>(v_).ok() && "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(v_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(v_);
  }

  const T& value() const& {
    assert(ok());
    return std::get<T>(v_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(v_);
  }
  T&& value() && {
    assert(ok());
    return std::move(std::get<T>(v_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> v_;
};

#define DISSODB_RETURN_NOT_OK(expr)            \
  do {                                         \
    ::dissodb::Status _st = (expr);            \
    if (!_st.ok()) return _st;                 \
  } while (0)

}  // namespace dissodb

#endif  // DISSODB_COMMON_STATUS_H_
