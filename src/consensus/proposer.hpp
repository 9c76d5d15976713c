// Multi-Paxos proposer / leader.
//
// Stable-leader Multi-Paxos: one Prepare covering the whole log suffix
// establishes leadership; client values then run Phase 2 only, pipelined
// across instances. Leadership and failover:
//   * the proposer with the lowest id starts as the initial candidate;
//   * the leader heartbeats the other proposers;
//   * a proposer that misses heartbeats long enough becomes a candidate
//     with a higher ballot (randomized backoff avoids duels);
//   * Nacks carry the higher promised ballot so a deposed leader catches
//     up and steps down.
// Request handling is at-least-once with dedup: every value travels with
// its request id; a leader never proposes an id it has seen proposed/decided
// (including ids recovered from Phase 1 promises), and learners drop
// duplicate ids identically (see learner.hpp). Accepts and Prepares are
// retransmitted on a timer, which makes the protocol live under the
// fair-lossy links of src/net.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "consensus/types.hpp"
#include "util/rng.hpp"

namespace psmr::consensus {

/// Maximum undecided instances a leader keeps in flight (the Phase 2
/// pipelining window). Bounds the proposer's memory and the burst it can
/// dump on the acceptors.
inline constexpr std::size_t kProposerWindow = 128;

struct ProposerConfig {
  std::vector<net::ProcessId> proposers;  // all proposer ids, sorted
  std::vector<net::ProcessId> acceptors;
  std::vector<net::ProcessId> learners;
  net::ProcessId client = 0;  // 0 = no client acks
  std::chrono::milliseconds heartbeat_interval{30};
  std::chrono::milliseconds election_timeout{150};
  std::chrono::milliseconds retransmit_timeout{60};
  std::uint64_t seed = 1;
};

class Proposer {
 public:
  Proposer(PaxosNetwork& network, PaxosEndpoint* endpoint, ProposerConfig config);
  ~Proposer();

  Proposer(const Proposer&) = delete;
  Proposer& operator=(const Proposer&) = delete;

  void start();
  void stop();

  /// Crash simulation: stop processing without cleaning up (the network
  /// keeps queueing to a dead endpoint; use Network::isolate for full
  /// silence). A dead process claims no role.
  void crash() {
    stop();
    leader_flag_.store(false, std::memory_order_relaxed);
  }

  bool is_leader() const;
  std::uint64_t decided_count() const;

  /// Log GC: drops retained decided values BELOW `instance`. Safe once
  /// every learner has delivered past that point (e.g. after a snapshot is
  /// durable); learners that later ask for truncated instances cannot be
  /// served from this proposer and must recover via snapshot instead.
  void truncate_decided_below(InstanceId instance);

 private:
  enum class Role { kFollower, kCandidate, kLeader };

  void run();
  void handle(const net::Envelope<Message>& env);
  void on_client_request(const ClientRequest& msg);
  void on_prepare_sent_tick();
  void on_promise(net::ProcessId from, const Promise& msg);
  void on_accepted(net::ProcessId from, const Accepted& msg);
  void on_nack(const Nack& msg);
  void on_decide(const Decide& msg);
  void on_learn_request(net::ProcessId from, const LearnRequest& msg);
  void on_heartbeat(net::ProcessId from, const Heartbeat& msg);
  void tick();

  void become_candidate();
  void become_leader();
  void propose_locked(std::uint64_t request_id, Value value);
  void send_accept_locked(InstanceId instance);
  void decide_locked(InstanceId instance);
  void flush_pending_locked();
  net::ProcessId leader_hint_locked() const;

  std::uint32_t majority() const {
    return static_cast<std::uint32_t>(config_.acceptors.size() / 2 + 1);
  }

  PaxosNetwork& network_;
  PaxosEndpoint* endpoint_;
  ProposerConfig config_;
  util::Xoshiro256 rng_;

  mutable std::mutex mu_;
  Role role_ = Role::kFollower;
  Ballot ballot_;                 // our current (or adopted) ballot
  Ballot max_seen_ballot_;        // highest ballot observed anywhere
  std::unordered_set<net::ProcessId> promises_;  // acceptors promised to us
  std::map<InstanceId, PromiseEntry> recovered_;  // phase-1 recovered values

  struct InFlight {
    std::uint64_t request_id = 0;  // 0 = no-op
    Value value;
    std::unordered_set<net::ProcessId> votes;  // acceptors that accepted
    std::chrono::steady_clock::time_point last_send{};
  };
  std::map<InstanceId, InFlight> in_flight_;
  struct DecidedValue {
    std::uint64_t request_id = 0;
    Value value;
  };
  std::map<InstanceId, DecidedValue> decided_;  // retained for learner catch-up
  InstanceId next_instance_ = 1;

  // Ordered by id so a leader proposes each client's requests in order,
  // which keeps proposed_or_decided_ at its floor.
  std::map<std::uint64_t, Value> pending_requests_;  // id -> value
  RequestDedup proposed_or_decided_;
  RequestDedup decided_requests_;

  std::chrono::steady_clock::time_point last_heartbeat_;
  std::chrono::steady_clock::time_point last_prepare_send_;
  std::chrono::steady_clock::time_point election_deadline_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> leader_flag_{false};
  std::atomic<std::uint64_t> decided_counter_{0};
  std::thread thread_;
};

}  // namespace psmr::consensus
