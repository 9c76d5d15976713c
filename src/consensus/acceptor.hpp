// Paxos acceptor role.
//
// Classic single-promised-ballot acceptor generalized over the instance log
// (Multi-Paxos): one `promised` ballot guards every instance; per-instance
// accepted (vballot, value) pairs are retained for Phase 1 recovery. The
// acceptor is passive — it only ever replies to Prepare/Accept — so crash
// simulation is just stopping its thread (or isolating it at the network).
// Each Accept is answered with one Accepted to its sender; the leader
// counts a vote per distinct acceptor.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>

#include "consensus/types.hpp"

namespace psmr::consensus {

class Acceptor {
 public:
  Acceptor(PaxosNetwork& network, PaxosEndpoint* endpoint);

  ~Acceptor();

  Acceptor(const Acceptor&) = delete;
  Acceptor& operator=(const Acceptor&) = delete;

  void start();
  void stop();

  /// Diagnostics / tests.
  Ballot promised() const;
  std::size_t accepted_count() const;

 private:
  void run();
  void handle(const net::Envelope<Message>& env);
  void on_prepare(net::ProcessId from, const Prepare& msg);
  void on_accept(net::ProcessId from, const Accept& msg);

  PaxosNetwork& network_;
  PaxosEndpoint* endpoint_;

  mutable std::mutex mu_;
  Ballot promised_;
  std::map<InstanceId, PromiseEntry> accepted_;

  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace psmr::consensus
