// Paxos learner role: in-order delivery of the decided sequence.
//
// Buffers Decide messages and delivers values strictly by instance number
// (the atomic-broadcast contract deliver(i, m) of §II). Duplicate request
// ids — possible across leader failovers, since Paxos is at-least-once at
// the request level — are skipped HERE, identically at every learner (the
// decision sequence is identical everywhere, so the skip pattern is too),
// preserving both agreement and total order for the application above.
// Gaps that persist longer than `gap_timeout` trigger a LearnRequest to the
// proposers, which re-send Decides for instances they have.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "consensus/types.hpp"

namespace psmr::consensus {

class Learner {
 public:
  /// Delivery callback: sequential delivery index (1-based, gap-free) and
  /// the application payload — the very buffer the client broadcast.
  using DeliverFn = std::function<void(std::uint64_t seq, Value payload)>;

  /// `first_instance` > 1 starts delivery mid-log — the snapshot-recovery
  /// path: a replica that installed a state snapshot covering instances
  /// [1, first_instance) only needs the suffix. Note that request-id dedup
  /// then only covers the suffix; duplicates of pre-snapshot requests can
  /// reappear after a leader failover (rare) and must be tolerated or
  /// fenced by the application.
  Learner(PaxosNetwork& network, PaxosEndpoint* endpoint,
          std::vector<net::ProcessId> proposers, DeliverFn deliver,
          std::chrono::milliseconds gap_timeout = std::chrono::milliseconds(100),
          InstanceId first_instance = 1);

  ~Learner();

  Learner(const Learner&) = delete;
  Learner& operator=(const Learner&) = delete;

  void start();
  void stop();

  std::uint64_t delivered() const { return delivered_count_.load(std::memory_order_relaxed); }
  InstanceId next_instance() const;

 private:
  void run();
  void on_decide(const Decide& msg);
  void maybe_request_retransmission();

  PaxosNetwork& network_;
  PaxosEndpoint* endpoint_;
  std::vector<net::ProcessId> proposers_;
  DeliverFn deliver_;
  std::chrono::milliseconds gap_timeout_;

  mutable std::mutex mu_;
  std::map<InstanceId, Decide> pending_;  // out-of-order decisions
  InstanceId next_instance_ = 1;          // next undelivered instance
  std::uint64_t next_seq_ = 1;            // application-visible sequence
  RequestDedup delivered_requests_;

  std::atomic<std::uint64_t> delivered_count_{0};
  std::chrono::steady_clock::time_point gap_since_{};
  bool gap_open_ = false;

  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace psmr::consensus
