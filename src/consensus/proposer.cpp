#include "consensus/proposer.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace psmr::consensus {

using Clock = std::chrono::steady_clock;

Proposer::Proposer(PaxosNetwork& network, PaxosEndpoint* endpoint, ProposerConfig config)
    : network_(network),
      endpoint_(endpoint),
      config_(std::move(config)),
      rng_(util::hash_combine(config_.seed, endpoint->id())) {
  PSMR_CHECK(endpoint_ != nullptr);
  PSMR_CHECK(!config_.proposers.empty());
  PSMR_CHECK(!config_.acceptors.empty());
  PSMR_CHECK(std::is_sorted(config_.proposers.begin(), config_.proposers.end()));
}

Proposer::~Proposer() { stop(); }

void Proposer::start() {
  PSMR_CHECK(!thread_.joinable());
  thread_ = std::thread([this] { run(); });
}

void Proposer::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

bool Proposer::is_leader() const { return leader_flag_.load(std::memory_order_relaxed); }

std::uint64_t Proposer::decided_count() const {
  return decided_counter_.load(std::memory_order_relaxed);
}

void Proposer::truncate_decided_below(InstanceId instance) {
  std::lock_guard lk(mu_);
  decided_.erase(decided_.begin(), decided_.lower_bound(instance));
}

std::size_t Proposer::retained_decided() const {
  std::lock_guard lk(mu_);
  return decided_.size();
}

void Proposer::run() {
  {
    std::lock_guard lk(mu_);
    const auto now = Clock::now();
    last_heartbeat_ = now;
    // The lowest-id proposer runs for leadership immediately; others give
    // it an election timeout's head start.
    if (endpoint_->id() == config_.proposers.front()) {
      become_candidate();
    } else {
      election_deadline_ = now + config_.election_timeout +
                           std::chrono::milliseconds(rng_.next_below(50));
    }
  }
  while (!stop_.load(std::memory_order_relaxed)) {
    auto env = endpoint_->recv_for(std::chrono::milliseconds(10));
    if (env.has_value()) handle(*env);
    tick();
  }
}

void Proposer::handle(const net::Envelope<Message>& env) {
  if (const auto* req = std::get_if<ClientRequest>(&env.msg)) {
    on_client_request(*req);
  } else if (const auto* promise = std::get_if<Promise>(&env.msg)) {
    on_promise(env.from, *promise);
  } else if (const auto* accepted = std::get_if<Accepted>(&env.msg)) {
    on_accepted(env.from, *accepted);
  } else if (const auto* nack = std::get_if<Nack>(&env.msg)) {
    on_nack(*nack);
  } else if (const auto* decide = std::get_if<Decide>(&env.msg)) {
    on_decide(*decide);
  } else if (const auto* learn = std::get_if<LearnRequest>(&env.msg)) {
    on_learn_request(env.from, *learn);
  } else if (const auto* hb = std::get_if<Heartbeat>(&env.msg)) {
    on_heartbeat(env.from, *hb);
  }
}

net::ProcessId Proposer::leader_hint_locked() const {
  // Best guess: whoever owns the highest ballot we have seen; fall back to
  // the lowest-id proposer.
  if (!max_seen_ballot_.is_zero()) return max_seen_ballot_.node;
  return config_.proposers.front();
}

void Proposer::on_client_request(const ClientRequest& msg) {
  std::lock_guard lk(mu_);
  if (proposed_or_decided_.contains(msg.request_id)) {
    // A retransmission of something already decided means the client lost
    // the ack; re-send it. Its Decide is found newest first: the client
    // retransmits within a few periods, so it is near the end of the log.
    if (config_.client != 0 && decided_requests_.contains(msg.request_id)) {
      for (auto it = decided_.rbegin(); it != decided_.rend(); ++it) {
        if (it->second.request_id != msg.request_id) continue;
        network_.send(endpoint_->id(), config_.client,
                      Decide{it->first, it->second.request_id, it->second.value});
        break;
      }
    }
    return;
  }
  pending_requests_[msg.request_id] = msg.value;
  if (role_ == Role::kLeader) {
    flush_pending_locked();
  } else {
    // Forward to the presumed leader (the request also stays queued here,
    // so it survives that leader's failure).
    const net::ProcessId hint = leader_hint_locked();
    if (hint != endpoint_->id()) {
      network_.send(endpoint_->id(), hint, ClientRequest{msg.request_id, msg.value});
    }
  }
}

void Proposer::become_candidate() {
  // Caller holds mu_.
  role_ = Role::kCandidate;
  leader_flag_.store(false, std::memory_order_relaxed);
  ballot_ = Ballot{std::max(ballot_.counter, max_seen_ballot_.counter) + 1, endpoint_->id()};
  max_seen_ballot_ = std::max(max_seen_ballot_, ballot_);
  promises_.clear();
  recovered_.clear();
  last_prepare_send_ = Clock::now();
  for (net::ProcessId a : config_.acceptors) {
    network_.send(endpoint_->id(), a, Prepare{ballot_, 1});
  }
}

void Proposer::on_promise(net::ProcessId from, const Promise& msg) {
  std::lock_guard lk(mu_);
  if (role_ != Role::kCandidate || msg.ballot != ballot_) return;
  promises_.insert(from);
  for (const PromiseEntry& e : msg.accepted) {
    auto it = recovered_.find(e.instance);
    if (it == recovered_.end() || it->second.vballot < e.vballot) {
      recovered_[e.instance] = e;
    }
  }
  if (promises_.size() >= majority()) become_leader();
}

void Proposer::become_leader() {
  // Caller holds mu_.
  role_ = Role::kLeader;
  leader_flag_.store(true, std::memory_order_relaxed);

  // Re-propose every recovered value under our ballot (Phase 1 rule), and
  // learn their request ids for dedup.
  for (const auto& [instance, entry] : recovered_) {
    if (decided_.contains(instance)) continue;
    if (entry.request_id != 0) {
      proposed_or_decided_.insert(entry.request_id);
      pending_requests_.erase(entry.request_id);
    }
    next_instance_ = std::max(next_instance_, instance + 1);
    auto& flight = in_flight_[instance];
    flight.request_id = entry.request_id;
    flight.value = entry.value;
    flight.votes.clear();
    flight.ring_votes = 0;
    send_accept_locked(instance);
  }
  recovered_.clear();
  // Fill log holes with no-ops (request id 0, null value; learners skip
  // them). A hole below next_instance_ that neither we nor any promising
  // acceptor knows a value for cannot have been decided — a decided value
  // is accepted by a majority, which intersects our promise quorum — so
  // writing a no-op there is safe and unblocks in-order delivery.
  for (InstanceId i = 1; i < next_instance_; ++i) {
    if (decided_.contains(i) || in_flight_.contains(i)) continue;
    in_flight_[i];  // default InFlight: the no-op
    send_accept_locked(i);
  }
  flush_pending_locked();
  // Announce leadership.
  for (net::ProcessId p : config_.proposers) {
    if (p != endpoint_->id()) network_.send(endpoint_->id(), p, Heartbeat{ballot_});
  }
}

void Proposer::flush_pending_locked() {
  for (auto it = pending_requests_.begin();
       it != pending_requests_.end() && in_flight_.size() < config_.window;) {
    if (proposed_or_decided_.contains(it->first)) {
      it = pending_requests_.erase(it);
      continue;
    }
    proposed_or_decided_.insert(it->first);
    propose_locked(it->first, it->second);
    it = pending_requests_.erase(it);
  }
}

void Proposer::propose_locked(std::uint64_t request_id, Value value) {
  const InstanceId instance = next_instance_++;
  auto& flight = in_flight_[instance];
  flight.request_id = request_id;
  flight.value = std::move(value);
  send_accept_locked(instance);
}

void Proposer::send_accept_locked(InstanceId instance) {
  auto& flight = in_flight_[instance];
  flight.last_send = Clock::now();
  Accept accept{ballot_, instance, flight.request_id, flight.value, 0, config_.ring};
  if (config_.ring) {
    // Chain the Accept around the acceptor ring starting at the successor
    // of... the ring is anchored at acceptor 0 for simplicity; the chain
    // accumulates votes and the majority-completing acceptor reports back.
    network_.send(endpoint_->id(), config_.acceptors.front(), accept);
  } else {
    for (net::ProcessId a : config_.acceptors) {
      network_.send(endpoint_->id(), a, accept);
    }
  }
}

void Proposer::on_accepted(net::ProcessId from, const Accepted& msg) {
  std::lock_guard lk(mu_);
  if (role_ != Role::kLeader || msg.ballot != ballot_) return;
  auto it = in_flight_.find(msg.instance);
  if (it == in_flight_.end()) return;  // already decided
  if (config_.ring) {
    it->second.ring_votes = std::max(it->second.ring_votes, msg.votes);
    if (it->second.ring_votes >= majority()) decide_locked(msg.instance);
  } else {
    it->second.votes.insert(from);
    if (it->second.votes.size() >= majority()) decide_locked(msg.instance);
  }
}

void Proposer::decide_locked(InstanceId instance) {
  auto it = in_flight_.find(instance);
  PSMR_CHECK(it != in_flight_.end());
  const Decide decide{instance, it->second.request_id, std::move(it->second.value)};
  in_flight_.erase(it);
  decided_.emplace(instance, DecidedValue{decide.request_id, decide.value});
  decided_counter_.fetch_add(1, std::memory_order_relaxed);
  if (decide.request_id != 0) {
    proposed_or_decided_.insert(decide.request_id);
    decided_requests_.insert(decide.request_id);
    pending_requests_.erase(decide.request_id);
  }
  for (net::ProcessId l : config_.learners) network_.send(endpoint_->id(), l, decide);
  for (net::ProcessId p : config_.proposers) {
    if (p != endpoint_->id()) network_.send(endpoint_->id(), p, decide);
  }
  if (config_.client != 0) network_.send(endpoint_->id(), config_.client, decide);
  flush_pending_locked();
}

void Proposer::on_nack(const Nack& msg) {
  std::lock_guard lk(mu_);
  max_seen_ballot_ = std::max(max_seen_ballot_, msg.promised);
  if (msg.promised > ballot_ && (role_ == Role::kLeader || role_ == Role::kCandidate)) {
    // Someone outranks us: step down and let their heartbeats keep us down.
    role_ = Role::kFollower;
    leader_flag_.store(false, std::memory_order_relaxed);
    last_heartbeat_ = Clock::now();
    election_deadline_ = last_heartbeat_ + config_.election_timeout +
                         std::chrono::milliseconds(rng_.next_below(100));
  }
}

void Proposer::on_decide(const Decide& msg) {
  std::lock_guard lk(mu_);
  decided_.emplace(msg.instance, DecidedValue{msg.request_id, msg.value});
  in_flight_.erase(msg.instance);
  next_instance_ = std::max(next_instance_, msg.instance + 1);
  if (msg.request_id != 0) {
    proposed_or_decided_.insert(msg.request_id);
    decided_requests_.insert(msg.request_id);
    pending_requests_.erase(msg.request_id);
  }
}

void Proposer::on_learn_request(net::ProcessId from, const LearnRequest& msg) {
  std::lock_guard lk(mu_);
  // Resend a bounded chunk of the decided log from the requested point.
  std::size_t sent = 0;
  for (auto it = decided_.lower_bound(msg.from_instance);
       it != decided_.end() && sent < 64; ++it, ++sent) {
    network_.send(endpoint_->id(), from,
                  Decide{it->first, it->second.request_id, it->second.value});
  }
}

void Proposer::on_heartbeat(net::ProcessId from, const Heartbeat& msg) {
  std::lock_guard lk(mu_);
  max_seen_ballot_ = std::max(max_seen_ballot_, msg.ballot);
  if (msg.ballot >= ballot_) {
    if (role_ != Role::kFollower && msg.ballot.node != endpoint_->id()) {
      role_ = Role::kFollower;
      leader_flag_.store(false, std::memory_order_relaxed);
    }
    last_heartbeat_ = Clock::now();
    election_deadline_ = last_heartbeat_ + config_.election_timeout +
                         std::chrono::milliseconds(rng_.next_below(100));
    // Keep forwarding anything we hold to the live leader.
    for (const auto& [id, value] : pending_requests_) {
      network_.send(endpoint_->id(), from, ClientRequest{id, value});
    }
  }
}

void Proposer::tick() {
  std::lock_guard lk(mu_);
  const auto now = Clock::now();
  switch (role_) {
    case Role::kLeader: {
      if (now - last_heartbeat_ >= config_.heartbeat_interval) {
        last_heartbeat_ = now;
        for (net::ProcessId p : config_.proposers) {
          if (p != endpoint_->id()) network_.send(endpoint_->id(), p, Heartbeat{ballot_});
        }
      }
      // Retransmit stalled Accepts (lossy links).
      for (auto& [instance, flight] : in_flight_) {
        if (now - flight.last_send >= config_.retransmit_timeout) {
          send_accept_locked(instance);
        }
      }
      flush_pending_locked();
      break;
    }
    case Role::kCandidate: {
      if (now - last_prepare_send_ >= config_.retransmit_timeout) {
        // Re-run Phase 1 with a fresh, higher ballot (covers lost
        // prepares/promises and ballot races).
        become_candidate();
      }
      break;
    }
    case Role::kFollower: {
      if (now >= election_deadline_) become_candidate();
      break;
    }
  }
}

}  // namespace psmr::consensus
