#include "consensus/learner.hpp"

#include "util/assert.hpp"

namespace psmr::consensus {

Learner::Learner(PaxosNetwork& network, PaxosEndpoint* endpoint,
                 std::vector<net::ProcessId> proposers, DeliverFn deliver,
                 std::chrono::milliseconds gap_timeout, InstanceId first_instance)
    : network_(network),
      endpoint_(endpoint),
      proposers_(std::move(proposers)),
      deliver_(std::move(deliver)),
      gap_timeout_(gap_timeout),
      next_instance_(first_instance) {
  PSMR_CHECK(endpoint_ != nullptr);
  PSMR_CHECK(deliver_ != nullptr);
  PSMR_CHECK(first_instance >= 1);
}

Learner::~Learner() { stop(); }

void Learner::start() {
  PSMR_CHECK(!thread_.joinable());
  thread_ = std::thread([this] { run(); });
}

void Learner::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

InstanceId Learner::next_instance() const {
  std::lock_guard lk(mu_);
  return next_instance_;
}

void Learner::run() {
  while (!stop_.load(std::memory_order_relaxed)) {
    auto env = endpoint_->recv_for(std::chrono::milliseconds(20));
    if (env.has_value()) {
      if (const auto* decide = std::get_if<Decide>(&env->msg)) on_decide(*decide);
    }
    maybe_request_retransmission();
  }
}

void Learner::on_decide(const Decide& msg) {
  std::unique_lock lk(mu_);
  if (msg.instance < next_instance_) return;  // duplicate of delivered work
  pending_.emplace(msg.instance, msg);

  // Deliver the contiguous prefix. The callback runs outside the lock so it
  // may block (scheduler backpressure) without stalling decide ingestion
  // bookkeeping... but ordering matters more than ingestion here, so we
  // deliver under a simple sequential loop.
  while (true) {
    auto it = pending_.find(next_instance_);
    if (it == pending_.end()) break;
    const std::uint64_t request_id = it->second.request_id;
    Value value = std::move(it->second.value);
    pending_.erase(it);
    ++next_instance_;

    // Skips the leader-change no-op filler (id 0) and duplicate requests.
    if (!delivered_requests_.insert(request_id)) continue;

    const std::uint64_t seq = next_seq_++;
    lk.unlock();
    deliver_(seq, std::move(value));
    delivered_count_.fetch_add(1, std::memory_order_relaxed);
    lk.lock();
  }
  gap_open_ = false;
}

void Learner::maybe_request_retransmission() {
  // Two loss modes need recovery: a HOLE (later instances arrived first —
  // pending_ non-empty) and TAIL LOSS (the newest Decide was dropped and
  // nothing after it will ever expose the gap). Both are covered by probing
  // the proposers whenever no delivery progress has happened for a
  // gap_timeout; proposers answer with their decided log from
  // next_instance_ on (nothing, if we are up to date).
  InstanceId ask_from = 0;
  {
    std::lock_guard lk(mu_);
    const auto now = std::chrono::steady_clock::now();
    if (!gap_open_) {
      gap_open_ = true;
      gap_since_ = now;
      return;
    }
    if (now - gap_since_ < gap_timeout_) return;
    gap_since_ = now;
    ask_from = next_instance_;
  }
  for (net::ProcessId p : proposers_) {
    network_.send(endpoint_->id(), p, LearnRequest{ask_from});
  }
}

}  // namespace psmr::consensus
