// Deterministic scripted fault timelines for chaos tests.
//
// Wall-clock fault injection makes chaos runs unreproducible: the same seed
// produces different histories depending on machine load. A FaultSchedule
// instead anchors every fault to a LOGICAL event counter — "cut this link
// when delivery sequence reaches 30", "crash the leader after 20
// broadcasts" — so a (seed, schedule) pair replays the same fault timeline
// relative to protocol progress on every run and every machine.
//
// The harness also ships two Service decorators:
//   * ThrowingService — injects deterministic worker faults: throws on a
//     scripted (client_id, sequence) BEFORE touching the inner service, so
//     every replica fails the same command with no partial state.
//   * ExecutionCounter — counts real executions per (client_id, sequence);
//     the exactly-once witness (any count > 1 is a dedup violation).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "smr/command.hpp"

namespace psmr::testing {

/// Logical clocks a fault can be anchored to. The test wires each trigger
/// to the matching observation point (delivery callback, broadcast wrapper,
/// ...); the schedule itself is clock-agnostic.
enum class Trigger : std::uint8_t {
  kDelivery = 0,   // atomic-broadcast delivery sequence
  kBroadcast = 1,  // number of batches handed to the total order
  kResponse = 2,   // number of responses observed by the client side
};

/// What a scheduled fault does. kCustom is an arbitrary Action; the replica
/// kinds are first-class so chaos tests can script whole-replica
/// crash/restart cycles against anything implementing ReplicaFaultTarget.
enum class FaultKind : std::uint8_t {
  kCustom = 0,
  kReplicaCrash = 1,
  kReplicaRestart = 2,
};

/// A replica (or replica stand-in) that a FaultSchedule can crash and later
/// bring back. crash() must make the replica stop delivering/executing
/// (e.g. PaxosGroup::crash_learner + Replica::stop); restart() must bring a
/// NEW incarnation up through the recovery path (checkpoint fetch + log
/// suffix replay), not resume the old one. Both are invoked from whatever
/// thread drives FaultSchedule::advance.
class ReplicaFaultTarget {
 public:
  virtual ~ReplicaFaultTarget() = default;
  virtual void crash() = 0;
  virtual void restart() = 0;
};

class FaultSchedule {
 public:
  using Action = std::function<void()>;
  /// Extra firing condition on the logical state a fault needs (e.g. "the
  /// victim has published a checkpoint"): a gated entry fires at the first
  /// advance past its threshold at which the gate holds. Evaluated under
  /// the schedule's lock, so it must not call back into the schedule.
  using Gate = std::function<bool()>;

  FaultSchedule() = default;
  FaultSchedule(const FaultSchedule&) = delete;
  FaultSchedule& operator=(const FaultSchedule&) = delete;

  /// Schedules `fire` to run the first time `trigger`'s clock reaches
  /// `threshold`. Actions with equal thresholds fire in insertion order.
  void at(Trigger trigger, std::uint64_t threshold, std::string label, Action fire);

  /// Schedules target.crash() — e.g. "crash the leader after 20
  /// broadcasts", or crash a replica mid-checkpoint-interval. The target
  /// must outlive the schedule. `ready`, if set, gates the firing (Gate).
  void crash_replica_at(Trigger trigger, std::uint64_t threshold, std::string label,
                        ReplicaFaultTarget& target, Gate ready = {});

  /// Schedules target.restart() — the recovery half of a crash/restart
  /// cycle. Pair with an earlier crash_replica_at on the same target; gate
  /// it on the crash having happened when the two are anchored to
  /// different logical state.
  void restart_replica_at(Trigger trigger, std::uint64_t threshold, std::string label,
                          ReplicaFaultTarget& target, Gate ready = {});

  /// Reports trigger progress. Runs every due, not-yet-fired action —
  /// exactly once each, outside the internal lock (actions may call back
  /// into the network/group). Thread-safe; concurrent advances serialize.
  void advance(Trigger trigger, std::uint64_t value);

  /// Labels of fired actions, in firing order.
  std::vector<std::string> fired() const;

  std::size_t pending() const;

  /// Fired actions of one kind (e.g. how many scripted crashes have
  /// actually happened — chaos tests assert progress against this).
  std::size_t fired_count(FaultKind kind) const;

 private:
  struct Entry {
    Trigger trigger;
    std::uint64_t threshold;
    std::string label;
    Action fire;
    FaultKind kind = FaultKind::kCustom;
    Gate ready;
    bool fired = false;
  };

  void add_entry(Trigger trigger, std::uint64_t threshold, std::string label,
                 Action fire, FaultKind kind, Gate ready = {});

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  std::vector<std::string> fired_;
};

/// Service decorator that throws on scripted commands — the deterministic
/// worker-fault injector. Throws happen BEFORE delegating, so the failed
/// command has no effect on any replica and replicas stay bit-identical.
class ThrowingService final : public smr::Service {
 public:
  explicit ThrowingService(smr::Service& inner) : inner_(inner) {}

  /// Every execution of (client_id, sequence) throws. Retransmissions never
  /// re-execute a FINISHED command (the session table caches the error
  /// response), so "always throw" stays deterministic under retries.
  void throw_on(std::uint64_t client_id, std::uint64_t sequence);

  smr::Response execute(const smr::Command& cmd) override;

  std::uint64_t throws() const noexcept {
    return throws_.load(std::memory_order_relaxed);
  }

 private:
  static std::uint64_t token(std::uint64_t client_id, std::uint64_t sequence) noexcept {
    return (client_id << 32) ^ sequence;
  }

  smr::Service& inner_;
  mutable std::mutex mu_;
  std::unordered_set<std::uint64_t> fail_tokens_;
  std::atomic<std::uint64_t> throws_{0};
};

/// Service decorator counting real executions per (client_id, sequence) —
/// the exactly-once witness for chaos tests. Tracked commands (sequence
/// != 0) executing more than once mean the dedup layer leaked a duplicate.
class ExecutionCounter final : public smr::Service {
 public:
  explicit ExecutionCounter(smr::Service& inner) : inner_(inner) {}

  smr::Response execute(const smr::Command& cmd) override;

  /// Highest per-command execution count (1 = exactly-once held).
  std::uint64_t max_executions() const;

  /// (client_id, sequence) pairs executed more than once.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> over_executed() const;

  /// Distinct tracked commands executed at least once.
  std::size_t distinct_commands() const;

 private:
  smr::Service& inner_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::uint64_t> counts_;  // token -> count
};

}  // namespace psmr::testing
