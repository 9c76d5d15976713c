// Atomic broadcast facade + deployment wiring.
//
// AtomicBroadcast is the §II abstraction: broadcast(m) and deliver(i, m)
// with agreement, total order, and integrity. Implementations:
//   * LocalBroadcast — an in-process sequencer; the zero-overhead reference
//     (useful to isolate the consensus stack's cost in benches).
//   * PaxosGroup — a full Multi-Paxos deployment over the simulated
//     network: A acceptors, P proposers, L learners, with crash/partition
//     injection for tests and examples. f = (A-1)/2 acceptor crashes are
//     tolerated; any minority of proposers may crash (a standby takes over
//     via election).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "consensus/acceptor.hpp"
#include "consensus/learner.hpp"
#include "consensus/proposer.hpp"
#include "consensus/types.hpp"
#include "obs/metrics.hpp"

namespace psmr::consensus {

class AtomicBroadcast {
 public:
  /// seq: 1-based gap-free delivery index; payload: the broadcast bytes.
  using DeliverFn = std::function<void(std::uint64_t seq, Value payload)>;

  virtual ~AtomicBroadcast() = default;

  /// Registers one delivery stream (e.g. one replica). Must be called
  /// before start().
  virtual void subscribe(DeliverFn fn) = 0;

  virtual void start() = 0;
  virtual void stop() = 0;

  /// Thread-safe. Delivery is asynchronous.
  virtual void broadcast(Value payload) = 0;
};

/// In-process total order: a mutex-guarded sequencer that invokes every
/// subscriber synchronously. Trivially satisfies the broadcast contract in
/// a crash-free single process.
class LocalBroadcast final : public AtomicBroadcast {
 public:
  void subscribe(DeliverFn fn) override { subscribers_.push_back(std::move(fn)); }
  void start() override {}
  void stop() override {}

  void broadcast(Value payload) override {
    std::lock_guard lk(mu_);
    const std::uint64_t seq = next_seq_++;
    for (const DeliverFn& fn : subscribers_) fn(seq, payload);
  }

 private:
  std::mutex mu_;
  std::uint64_t next_seq_ = 1;
  std::vector<DeliverFn> subscribers_;
};

struct GroupConfig {
  unsigned acceptors = 3;  // n = 2f+1
  unsigned proposers = 2;  // leader + standby
  std::uint64_t seed = 1;
  net::LinkConfig default_link{};  // fault injection for every link
  std::chrono::milliseconds heartbeat_interval{30};
  std::chrono::milliseconds election_timeout{150};
  std::chrono::milliseconds retransmit_timeout{60};
  /// Cap on the client-side retransmit buffer (requests broadcast but not
  /// yet observed decided). When full, broadcast() BLOCKS until decisions
  /// drain — consensus applies backpressure to its caller instead of
  /// buffering forever (`consensus.backpressure_waits` counts the stalls).
  /// 0 = unbounded (the pre-PR-8 behaviour).
  std::size_t max_unacked_broadcasts = 0;
};

class PaxosGroup final : public AtomicBroadcast {
 public:
  explicit PaxosGroup(GroupConfig config);
  ~PaxosGroup() override;

  void subscribe(DeliverFn fn) override;
  void start() override;
  void stop() override;
  /// Blocks while the unacked-retransmit buffer is at
  /// GroupConfig::max_unacked_broadcasts (backpressure, not buffering);
  /// returns immediately once the request is enqueued.
  void broadcast(Value payload) override;

  /// Registers an ADDITIONAL learner after start() — the recovery /
  /// scale-out path: a replica that joins late (or restarts from scratch)
  /// catches up from instance 1 by pulling the proposers' decided log with
  /// LearnRequests, then keeps pulling on its gap-probe period. Pull-based:
  /// the established proposers need no membership change. Returns the
  /// learner index. `from_instance` > 1 joins mid-log — the snapshot
  /// recovery path: the caller installed a state snapshot covering
  /// instances [1, from_instance).
  std::size_t add_learner(DeliverFn fn, InstanceId from_instance = 1);

  /// The next instance learner `index` will deliver — used to stamp
  /// snapshots for state transfer (everything below is included).
  InstanceId learner_next_instance(std::size_t index) const;

  /// Log GC across all proposers: drops retained decided values below the
  /// minimum of `horizon` and every current learner's delivery point.
  /// Call after a snapshot covering [1, horizon) is durable; replicas
  /// recovering later must use snapshot + suffix (add_learner with
  /// from_instance >= horizon).
  void truncate_log_below(InstanceId horizon);

  // ---- fault injection (tests, examples, chaos schedules) ----
  /// Crashes an acceptor (stops its thread and silences its links).
  void crash_acceptor(unsigned index);
  /// Crashes a proposer; if it was the leader, a standby takes over.
  void crash_proposer(unsigned index);
  /// Crashes a learner: isolates its process and stops its delivery stream.
  /// Truncation stops counting it (a crashed replica must not pin the log;
  /// it recovers later via snapshot + suffix, not by replaying from its old
  /// position). The index stays occupied — a restarted replica rejoins as a
  /// NEW learner via add_learner.
  void crash_learner(std::size_t index);
  /// Network access for custom fault plans.
  PaxosNetwork& network() { return *network_; }

  /// Process id of acceptor `i` — lets scripted fault schedules cut or
  /// degrade its links through network() without knowing the id layout.
  net::ProcessId acceptor_process(unsigned i) const { return acceptor_id(i); }
  /// Id space reserved for state-transfer endpoints (checkpoint servers and
  /// rejoin clients register these themselves through network()).
  net::ProcessId state_process(unsigned i) const { return 400 + i; }

  /// Every process id currently registered by this group (client, proposers,
  /// acceptors, learners added so far).
  std::vector<net::ProcessId> all_processes() const;

  /// Cuts (up=false) or heals (up=true) every link between `island` and the
  /// rest of the group — a scripted network partition. Links WITHIN the
  /// island and within the remainder stay untouched.
  void set_partition(const std::vector<net::ProcessId>& island, bool up);

  // ---- observability ----
  int leader_index() const;  // -1 if none currently claims leadership
  std::uint64_t broadcasts() const { return broadcast_counter_->value(); }

  /// Unified metrics snapshot (`consensus.*` — DESIGN.md §10).
  obs::Snapshot stats() const {
    metrics_->gauge("consensus.leader_index").set(static_cast<double>(leader_index()));
    return metrics_->snapshot();
  }

 private:
  net::ProcessId proposer_id(unsigned i) const { return 100 + i; }
  net::ProcessId acceptor_id(unsigned i) const { return 200 + i; }
  net::ProcessId learner_id(unsigned i) const { return 300 + i; }
  static constexpr net::ProcessId kClientId = 1;

  void client_loop();

  GroupConfig config_;
  std::unique_ptr<PaxosNetwork> network_;
  PaxosEndpoint* client_endpoint_ = nullptr;

  std::vector<std::unique_ptr<Acceptor>> acceptor_roles_;
  std::vector<std::unique_ptr<Proposer>> proposer_roles_;
  std::vector<std::unique_ptr<Learner>> learner_roles_;
  std::vector<bool> learner_crashed_;  // guarded by mu_
  std::vector<DeliverFn> pending_subscribers_;

  mutable std::mutex mu_;
  // Requests not yet observed decided; the client thread retransmits them
  // until a Decide naming their id arrives (fair-lossy links demand sender
  // persistence — §II: "if a sender sends a message enough times, a correct
  // receiver will eventually receive the message"). Bounded by
  // max_unacked_broadcasts: broadcast() waits on unacked_cv_ while full.
  std::unordered_map<std::uint64_t, Value> unacked_;
  std::condition_variable unacked_cv_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter* broadcast_counter_;
  obs::Counter* backpressure_waits_counter_;
  std::atomic<std::uint64_t> next_request_id_{1};
  bool started_ = false;
  std::atomic<bool> client_stop_{false};
  std::thread client_thread_;
};

}  // namespace psmr::consensus
