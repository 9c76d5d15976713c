#include "smr/command.hpp"

namespace psmr::smr {

const char* to_string(OpType t) noexcept {
  switch (t) {
    case OpType::kCreate: return "create";
    case OpType::kRead: return "read";
    case OpType::kUpdate: return "update";
    case OpType::kRemove: return "remove";
  }
  return "?";
}

const char* to_string(Status s) noexcept {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kNotFound: return "not_found";
    case Status::kAlreadyExists: return "already_exists";
    case Status::kFailed: return "failed";
    case Status::kOverloaded: return "overloaded";
  }
  return "?";
}

}  // namespace psmr::smr
