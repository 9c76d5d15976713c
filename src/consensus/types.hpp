// Message and state types for the consensus substrate.
//
// The paper's prototype obtained its total order from Ring Paxos
// (URingPaxos). We implement Multi-Paxos over the simulated network of
// src/net, with an optional ring dissemination mode for Phase 2 (a
// simplified Ring Paxos: Accepts chain through f+1 acceptors instead of
// fanning out). Values are opaque byte payloads; every message that carries
// one also carries its request id, the dedup key across leader failovers.
// The payload buffer itself is never copied on the way through: the
// proposer, acceptors, learners and the caller's delivery stream all hold
// the one buffer the client broadcast.
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <variant>
#include <vector>

#include "net/network.hpp"

namespace psmr::consensus {

/// Opaque replicated value (serialized batch). Shared pointer so fan-out
/// and retransmission never copy the payload.
using Value = std::shared_ptr<const std::vector<std::uint8_t>>;

using InstanceId = std::uint64_t;

/// Totally ordered ballot: (counter, proposing node) lexicographically.
struct Ballot {
  std::uint64_t counter = 0;
  net::ProcessId node = 0;

  auto operator<=>(const Ballot&) const = default;
  bool is_zero() const noexcept { return counter == 0 && node == 0; }
};

/// Client submission. `request_id` must be globally unique; it doubles as
/// the dedup key across retransmissions and leader changes.
struct ClientRequest {
  std::uint64_t request_id = 0;
  Value value;
};

/// Phase 1a. Covers every instance >= first_instance (Multi-Paxos: one
/// prepare establishes leadership for the whole log suffix).
struct Prepare {
  Ballot ballot;
  InstanceId first_instance = 1;
};

/// Request id 0 with a null value is the no-op a new leader writes into a
/// log hole; learners skip it.
struct PromiseEntry {
  InstanceId instance = 0;
  Ballot vballot;
  std::uint64_t request_id = 0;
  Value value;
};

/// Phase 1b. Reports every accepted entry at or above first_instance.
struct Promise {
  Ballot ballot;
  InstanceId first_instance = 1;
  std::vector<PromiseEntry> accepted;
};

/// Phase 2a. In ring mode the Accept chains through acceptors accumulating
/// `votes`; in fan-out mode votes stays 0 and each acceptor replies
/// directly to the leader.
struct Accept {
  Ballot ballot;
  InstanceId instance = 0;
  std::uint64_t request_id = 0;
  Value value;
  std::uint32_t votes = 0;
  bool ring = false;
};

/// Phase 2b (fan-out mode) or end-of-chain report (ring mode).
struct Accepted {
  Ballot ballot;
  InstanceId instance = 0;
  std::uint32_t votes = 1;  // ring mode: accumulated count
};

/// Rejection carrying the currently promised ballot so the proposer can
/// catch up.
struct Nack {
  Ballot promised;
  InstanceId instance = 0;
};

/// Decision broadcast to learners (and proposers, which track the decided
/// set for dedup and retransmission).
struct Decide {
  InstanceId instance = 0;
  std::uint64_t request_id = 0;
  Value value;
};

/// Learner's retransmission request for a gap starting at from_instance.
struct LearnRequest {
  InstanceId from_instance = 1;
};

/// Leader liveness signal to other proposers.
struct Heartbeat {
  Ballot ballot;
};

/// State-transfer request (DESIGN.md §12 rejoin protocol): a recovering
/// replica asks a checkpoint server for its latest checkpoint.
struct CheckpointRequest {
  std::uint64_t request_id = 0;
};

/// State-transfer response. `record` is an encoded checkpoint frame
/// (smr::encode_checkpoint / decode_checkpoint), or null when the server
/// holds no checkpoint yet; `resume_from` is the first instance the
/// requester must replay after installing the record (== the record's
/// log_horizon; 1 when record is null — full replay).
struct CheckpointResponse {
  std::uint64_t request_id = 0;
  InstanceId resume_from = 1;
  Value record;
};

using Message = std::variant<ClientRequest, Prepare, Promise, Accept, Accepted, Nack,
                             Decide, LearnRequest, Heartbeat, CheckpointRequest,
                             CheckpointResponse>;

using PaxosNetwork = net::Network<Message>;
using PaxosEndpoint = net::Endpoint<Message>;

/// Exact set of request ids, bounded by how far out of order they arrive
/// rather than by how many there are: every id in [1, floor()] is present,
/// and the ids above the floor are kept as maximal runs of consecutive ids.
/// Ids are assigned 1, 2, 3, ... by each client, so the runs stay few and
/// short; a stream that starts mid-range (a learner joining after a
/// snapshot) costs one run, not one entry per id. Id 0 is never stored.
class RequestDedup {
 public:
  /// Adds `id`; false if it was already present (or is 0).
  bool insert(std::uint64_t id);
  bool contains(std::uint64_t id) const;
  /// Every id in [1, floor()] is present.
  std::uint64_t floor() const noexcept { return floor_; }
  /// Runs stored above the floor (tests).
  std::size_t runs() const noexcept { return runs_.size(); }

 private:
  std::uint64_t floor_ = 0;
  std::map<std::uint64_t, std::uint64_t> runs_;  // first -> last, gaps between
};

}  // namespace psmr::consensus
