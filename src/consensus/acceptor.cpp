#include "consensus/acceptor.hpp"

#include <chrono>

#include "util/assert.hpp"

namespace psmr::consensus {

Acceptor::Acceptor(PaxosNetwork& network, PaxosEndpoint* endpoint)
    : network_(network), endpoint_(endpoint) {
  PSMR_CHECK(endpoint_ != nullptr);
}

Acceptor::~Acceptor() { stop(); }

void Acceptor::start() {
  PSMR_CHECK(!thread_.joinable());
  thread_ = std::thread([this] { run(); });
}

void Acceptor::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

Ballot Acceptor::promised() const {
  std::lock_guard lk(mu_);
  return promised_;
}

std::size_t Acceptor::accepted_count() const {
  std::lock_guard lk(mu_);
  return accepted_.size();
}

void Acceptor::run() {
  while (!stop_.load(std::memory_order_relaxed)) {
    auto env = endpoint_->recv_for(std::chrono::milliseconds(20));
    if (env.has_value()) handle(*env);
  }
}

void Acceptor::handle(const net::Envelope<Message>& env) {
  if (const auto* prepare = std::get_if<Prepare>(&env.msg)) {
    on_prepare(env.from, *prepare);
  } else if (const auto* accept = std::get_if<Accept>(&env.msg)) {
    on_accept(env.from, *accept);
  }
  // Acceptors ignore everything else.
}

void Acceptor::on_prepare(net::ProcessId from, const Prepare& msg) {
  std::lock_guard lk(mu_);
  if (msg.ballot < promised_) {
    network_.send(endpoint_->id(), from, Nack{promised_, 0});
    return;
  }
  promised_ = msg.ballot;
  Promise promise;
  promise.ballot = msg.ballot;
  promise.first_instance = msg.first_instance;
  for (auto it = accepted_.lower_bound(msg.first_instance); it != accepted_.end(); ++it) {
    promise.accepted.push_back(it->second);
  }
  network_.send(endpoint_->id(), from, promise);
}

void Acceptor::on_accept(net::ProcessId from, const Accept& msg) {
  std::unique_lock lk(mu_);
  if (msg.ballot < promised_) {
    network_.send(endpoint_->id(), from, Nack{promised_, msg.instance});
    return;
  }
  promised_ = msg.ballot;
  accepted_[msg.instance] = PromiseEntry{msg.instance, msg.ballot, msg.request_id, msg.value};
  lk.unlock();
  network_.send(endpoint_->id(), from, Accepted{msg.ballot, msg.instance});
}

}  // namespace psmr::consensus
