#include "common/status.h"

namespace amalur {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "Invalid argument";
    case StatusCode::kNotFound:
      return "Not found";
    case StatusCode::kAlreadyExists:
      return "Already exists";
    case StatusCode::kOutOfRange:
      return "Out of range";
    case StatusCode::kFailedPrecondition:
      return "Failed precondition";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kIOError:
      return "IO error";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

Status Status::WithContext(const std::string& context) const {
  if (ok()) return *this;
  return Status(code_, context + ": " + message_);
}

}  // namespace amalur
