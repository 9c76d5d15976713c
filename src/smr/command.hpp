// Command model for the replicated service.
//
// Commands are the deterministic state-machine inputs of classical SMR
// (§III): each one reads and/or writes a single keyed entry of the service
// state. Two commands CONFLICT iff they access a common key and at least one
// writes it (paper §IV / Definition 2); independent commands may execute
// concurrently.
#pragma once

#include <cstdint>
#include <string>

namespace psmr::smr {

/// Service keys. The paper's prototype hashes database keys into bitmap
/// positions; 64-bit integer keys keep that path allocation-free while
/// permitting 10^9-element key spaces (Table I).
using Key = std::uint64_t;
using Value = std::uint64_t;

/// CRUD command set of the evaluated key-value service (§VI).
enum class OpType : std::uint8_t {
  kCreate = 0,  // insert; fails if the key exists
  kRead = 1,    // lookup; no state change
  kUpdate = 2,  // upsert
  kRemove = 3,  // delete; fails if absent
};

const char* to_string(OpType t) noexcept;

struct Command {
  OpType type = OpType::kRead;
  Key key = 0;
  Value value = 0;
  /// Originating client, globally unique (proxy id in the high bits).
  std::uint64_t client_id = 0;
  /// Per-client sequence number; (client_id, sequence) identifies the
  /// command for response routing and history checking.
  std::uint64_t sequence = 0;
  /// Synthetic execution cost in nanoseconds, burned by the service on top
  /// of the real CRUD work — the "light vs heavy request processing" knob
  /// of §VII-A.
  std::uint32_t cost_ns = 0;

  bool is_read() const noexcept { return type == OpType::kRead; }
  bool is_write() const noexcept { return type != OpType::kRead; }

  bool operator==(const Command&) const noexcept = default;
};

/// Dependency test from the paper's Definition 2: commands conflict iff
/// they touch the same key and at least one of them writes it. Two reads of
/// the same key are independent.
inline bool commands_conflict(const Command& a, const Command& b) noexcept {
  return a.key == b.key && (a.is_write() || b.is_write());
}

enum class Status : std::uint8_t {
  kOk = 0,
  kNotFound = 1,
  kAlreadyExists = 2,
  /// Execution raised an exception; the command had no effect on the state
  /// (worker fault isolation — the scheduler stays alive and dependents
  /// still run). Deterministic services throw deterministically, so every
  /// replica reports the same failures.
  kFailed = 3,
  /// Shed by admission control BEFORE atomic broadcast (DESIGN.md §14):
  /// the command was never ordered, never reached any replica, and had no
  /// effect anywhere — so replicas stay bit-identical regardless of which
  /// proxy shed it. Carries a retry-after hint in Response::value
  /// (milliseconds) for the client's backoff.
  kOverloaded = 4,
};

const char* to_string(Status s) noexcept;

struct Response {
  Status status = Status::kOk;
  Value value = 0;
  std::uint64_t client_id = 0;
  std::uint64_t sequence = 0;

  bool operator==(const Response&) const noexcept = default;
};

/// A deterministic replicated service: the state machine of §III. Execution
/// must be a pure function of (current state, command); any randomness or
/// time dependence would diverge replicas.
class Service {
 public:
  virtual ~Service() = default;
  virtual Response execute(const Command& cmd) = 0;
};

}  // namespace psmr::smr
