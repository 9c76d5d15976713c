#include "consensus/group.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace psmr::consensus {

PaxosGroup::PaxosGroup(GroupConfig config)
    : config_(config),
      network_(std::make_unique<PaxosNetwork>(config.seed)),
      metrics_(std::make_shared<obs::MetricsRegistry>()),
      broadcast_counter_(&metrics_->counter("consensus.broadcasts")),
      backpressure_waits_counter_(&metrics_->counter("consensus.backpressure_waits")) {
  PSMR_CHECK(config_.acceptors >= 1);
  PSMR_CHECK(config_.proposers >= 1);
  PSMR_CHECK(config_.proposer_window >= 1);
  metrics_->gauge("consensus.acceptors").set(static_cast<double>(config_.acceptors));
  metrics_->gauge("consensus.proposers").set(static_cast<double>(config_.proposers));
  metrics_->gauge("consensus.unacked").set(0.0);
  metrics_->gauge("consensus.max_unacked_broadcasts")
      .set(static_cast<double>(config_.max_unacked_broadcasts));
  network_->set_default_link(config_.default_link);
  client_endpoint_ = network_->register_process(kClientId);
}

PaxosGroup::~PaxosGroup() { stop(); }

void PaxosGroup::subscribe(DeliverFn fn) {
  std::lock_guard lk(mu_);
  PSMR_CHECK(!started_);
  pending_subscribers_.push_back(std::move(fn));
}

void PaxosGroup::start() {
  std::lock_guard lk(mu_);
  PSMR_CHECK(!started_);
  started_ = true;

  std::vector<net::ProcessId> proposer_ids, acceptor_ids, learner_ids;
  for (unsigned i = 0; i < config_.proposers; ++i) proposer_ids.push_back(proposer_id(i));
  for (unsigned i = 0; i < config_.acceptors; ++i) acceptor_ids.push_back(acceptor_id(i));
  for (unsigned i = 0; i < pending_subscribers_.size(); ++i) {
    learner_ids.push_back(learner_id(i));
  }

  const std::uint32_t majority = static_cast<std::uint32_t>(config_.acceptors / 2 + 1);

  for (unsigned i = 0; i < config_.acceptors; ++i) {
    auto* ep = network_->register_process(acceptor_id(i));
    acceptor_roles_.push_back(
        std::make_unique<Acceptor>(*network_, ep, acceptor_ids, i, majority));
  }
  for (unsigned i = 0; i < config_.proposers; ++i) {
    auto* ep = network_->register_process(proposer_id(i));
    ProposerConfig pcfg;
    pcfg.proposers = proposer_ids;
    pcfg.acceptors = acceptor_ids;
    pcfg.learners = learner_ids;
    pcfg.ring = config_.ring;
    pcfg.client = kClientId;
    pcfg.heartbeat_interval = config_.heartbeat_interval;
    pcfg.election_timeout = config_.election_timeout;
    pcfg.retransmit_timeout = config_.retransmit_timeout;
    pcfg.window = config_.proposer_window;
    pcfg.seed = config_.seed;
    proposer_roles_.push_back(std::make_unique<Proposer>(*network_, ep, pcfg));
  }
  for (unsigned i = 0; i < pending_subscribers_.size(); ++i) {
    auto* ep = network_->register_process(learner_id(i));
    learner_roles_.push_back(std::make_unique<Learner>(
        *network_, ep, proposer_ids, pending_subscribers_[i]));
    learner_crashed_.push_back(false);
  }

  for (auto& a : acceptor_roles_) a->start();
  for (auto& p : proposer_roles_) p->start();
  for (auto& l : learner_roles_) l->start();
  client_thread_ = std::thread([this] { client_loop(); });
}

void PaxosGroup::client_loop() {
  using namespace std::chrono_literals;
  auto last_resend = std::chrono::steady_clock::now();
  while (!client_stop_.load(std::memory_order_relaxed)) {
    // Drain decide notifications addressed to the client.
    while (auto env = client_endpoint_->try_recv()) {
      if (const auto* decide = std::get_if<Decide>(&env->msg)) {
        bool erased = false;
        {
          std::lock_guard lk(mu_);
          erased = unacked_.erase(decide->request_id) != 0;
          if (erased) {
            metrics_->gauge("consensus.unacked").set(static_cast<double>(unacked_.size()));
          }
        }
        // A decision drained a slot — release any broadcaster blocked on
        // the max_unacked_broadcasts cap.
        if (erased) unacked_cv_.notify_all();
      }
    }
    const auto now = std::chrono::steady_clock::now();
    if (now - last_resend >= config_.retransmit_timeout * 4) {
      last_resend = now;
      std::lock_guard lk(mu_);
      for (const auto& [id, payload] : unacked_) {
        for (unsigned i = 0; i < config_.proposers; ++i) {
          network_->send(kClientId, proposer_id(i), ClientRequest{id, payload});
        }
      }
    }
    std::this_thread::sleep_for(5ms);
  }
}

void PaxosGroup::stop() {
  {
    std::lock_guard lk(mu_);
    if (!started_) return;
  }
  // Stop roles before the network so their last sends hit a live object;
  // network_->shutdown() then releases anything blocked in recv.
  client_stop_.store(true, std::memory_order_relaxed);
  unacked_cv_.notify_all();  // release broadcasters blocked on the cap
  if (client_thread_.joinable()) client_thread_.join();
  network_->shutdown();
  for (auto& p : proposer_roles_) p->stop();
  for (auto& a : acceptor_roles_) a->stop();
  for (auto& l : learner_roles_) l->stop();
}

std::size_t PaxosGroup::add_learner(DeliverFn fn, InstanceId from_instance) {
  std::lock_guard lk(mu_);
  PSMR_CHECK(started_);
  std::vector<net::ProcessId> proposer_ids;
  for (unsigned i = 0; i < config_.proposers; ++i) proposer_ids.push_back(proposer_id(i));
  const std::size_t index = learner_roles_.size();
  auto* ep = network_->register_process(learner_id(static_cast<unsigned>(index)));
  learner_roles_.push_back(std::make_unique<Learner>(
      *network_, ep, proposer_ids, std::move(fn), std::chrono::milliseconds(100),
      from_instance));
  learner_crashed_.push_back(false);
  learner_roles_.back()->start();
  return index;
}

InstanceId PaxosGroup::learner_next_instance(std::size_t index) const {
  PSMR_CHECK(index < learner_roles_.size());
  return learner_roles_[index]->next_instance();
}

void PaxosGroup::truncate_log_below(InstanceId horizon) {
  // Never truncate past a LIVE learner: it could still need the suffix.
  // Crashed learners don't count — they rejoin via snapshot + suffix, never
  // by resuming their old delivery position.
  {
    std::lock_guard lk(mu_);
    for (std::size_t i = 0; i < learner_roles_.size(); ++i) {
      if (learner_crashed_[i]) continue;
      horizon = std::min(horizon, learner_roles_[i]->next_instance());
    }
  }
  for (const auto& proposer : proposer_roles_) {
    proposer->truncate_decided_below(horizon);
  }
}

void PaxosGroup::broadcast(Value payload) {
  const std::uint64_t request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  broadcast_counter_->add(1);
  {
    std::unique_lock lk(mu_);
    if (config_.max_unacked_broadcasts != 0 &&
        unacked_.size() >= config_.max_unacked_broadcasts) {
      // Retransmit buffer full: block until decisions drain instead of
      // growing without bound. Backpressure propagates to the caller (the
      // consensus adapter / proxy), which is exactly where it belongs —
      // everything past this point is already IN the order. stop() releases
      // blocked broadcasters via client_stop_.
      backpressure_waits_counter_->add(1);
      unacked_cv_.wait(lk, [&] {
        return client_stop_.load(std::memory_order_relaxed) ||
               unacked_.size() < config_.max_unacked_broadcasts;
      });
      if (client_stop_.load(std::memory_order_relaxed)) return;
    }
    unacked_.emplace(request_id, payload);
    metrics_->gauge("consensus.unacked").set(static_cast<double>(unacked_.size()));
  }
  // A fresh request goes to the leader alone; with no leader it goes to
  // every proposer (followers queue it and forward it to the leader they
  // elect). The client thread's retransmit goes to every proposer, so the
  // request survives the failure of the proposer it was first sent to.
  const int leader = leader_index();
  for (unsigned i = 0; i < config_.proposers; ++i) {
    if (leader < 0 || static_cast<unsigned>(leader) == i) {
      network_->send(kClientId, proposer_id(i), ClientRequest{request_id, payload});
    }
  }
}

void PaxosGroup::crash_acceptor(unsigned index) {
  PSMR_CHECK(index < acceptor_roles_.size());
  network_->isolate(acceptor_id(index), true);
  acceptor_roles_[index]->stop();
}

void PaxosGroup::crash_learner(std::size_t index) {
  {
    std::lock_guard lk(mu_);
    PSMR_CHECK(index < learner_roles_.size());
    learner_crashed_[index] = true;
  }
  network_->isolate(learner_id(static_cast<unsigned>(index)), true);
  learner_roles_[index]->stop();
}

void PaxosGroup::crash_proposer(unsigned index) {
  PSMR_CHECK(index < proposer_roles_.size());
  network_->isolate(proposer_id(index), true);
  proposer_roles_[index]->crash();
}

std::vector<net::ProcessId> PaxosGroup::all_processes() const {
  std::lock_guard lk(mu_);
  std::vector<net::ProcessId> ids;
  ids.push_back(kClientId);
  for (unsigned i = 0; i < config_.proposers; ++i) ids.push_back(proposer_id(i));
  for (unsigned i = 0; i < config_.acceptors; ++i) ids.push_back(acceptor_id(i));
  for (unsigned i = 0; i < learner_roles_.size(); ++i) {
    ids.push_back(learner_id(i));
  }
  return ids;
}

void PaxosGroup::set_partition(const std::vector<net::ProcessId>& island, bool up) {
  const std::vector<net::ProcessId> everyone = all_processes();
  for (net::ProcessId inside : island) {
    for (net::ProcessId other : everyone) {
      if (std::find(island.begin(), island.end(), other) != island.end()) continue;
      network_->set_link_up(inside, other, up);
    }
  }
}

int PaxosGroup::leader_index() const {
  for (unsigned i = 0; i < proposer_roles_.size(); ++i) {
    if (proposer_roles_[i]->is_leader()) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace psmr::consensus
