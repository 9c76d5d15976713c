#include "smr/proxy.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace psmr::smr {

Proxy::Proxy(Config config, CommandSource source, BroadcastFn broadcast)
    : config_(config),
      source_(std::move(source)),
      broadcast_(std::move(broadcast)),
      client_seq_(config.num_clients, 0),
      jitter_rng_(config.proxy_id * 0x9e3779b97f4a7c15ULL + 1),
      metrics_(std::make_shared<obs::MetricsRegistry>()),
      commands_completed_(&metrics_->counter("proxy." + std::to_string(config.proxy_id) +
                                             ".commands_completed")),
      batches_completed_(&metrics_->counter("proxy." + std::to_string(config.proxy_id) +
                                            ".batches_completed")),
      retransmits_(&metrics_->counter("proxy." + std::to_string(config.proxy_id) +
                                      ".retransmits")),
      batches_abandoned_(&metrics_->counter("proxy." + std::to_string(config.proxy_id) +
                                            ".batches_abandoned")),
      admission_rejections_(&metrics_->counter(
          "proxy." + std::to_string(config.proxy_id) + ".admission_rejections")),
      latency_(&metrics_->histogram("proxy." + std::to_string(config.proxy_id) +
                                    ".latency_ns")),
      admission_wait_ns_(&metrics_->histogram("proxy." + std::to_string(config.proxy_id) +
                                              ".admission_wait_ns")) {
  metrics_->gauge("proxy." + std::to_string(config_.proxy_id) + ".batch_size")
      .set(static_cast<double>(config_.formation.batch_size));
  PSMR_CHECK(config_.formation.batch_size >= 1);
  PSMR_CHECK(config_.num_clients >= 1);
  PSMR_CHECK(config_.reliability.retry.initial.count() > 0);
  PSMR_CHECK(config_.reliability.retry.multiplier >= 1.0);
  PSMR_CHECK(config_.reliability.retry.jitter >= 0.0);
  PSMR_CHECK(source_ != nullptr);
  PSMR_CHECK(broadcast_ != nullptr);
}

Proxy::~Proxy() { stop(); }

void Proxy::start() {
  PSMR_CHECK(!thread_.joinable());
  thread_ = std::thread([this] { run_loop(); });
}

void Proxy::stop() {
  {
    // The flag must flip under mu_: setting it between the loop's predicate
    // check and its (atomic) unlock-and-sleep would lose the wakeup and —
    // before waits were bounded — hang the join forever.
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  all_done_.notify_all();
  if (thread_.joinable()) thread_.join();
}

Batch Proxy::build_round() {
  std::vector<Command> commands;
  commands.reserve(config_.formation.batch_size);
  for (std::size_t j = 0; j < config_.formation.batch_size; ++j) {
    const std::size_t local = j % config_.num_clients;
    const std::uint64_t client_id = config_.proxy_id * config_.num_clients + local;
    const std::uint64_t seq = ++client_seq_[local];
    Command cmd = source_(client_id, seq);
    cmd.client_id = client_id;
    cmd.sequence = seq;
    commands.push_back(cmd);
  }
  Batch batch(std::move(commands));
  batch.set_proxy_id(config_.proxy_id);
  if (config_.formation.use_bitmap) batch.build_bitmap(config_.formation.bitmap);
  return batch;
}

std::chrono::nanoseconds Proxy::backoff_with_jitter(std::chrono::nanoseconds backoff) {
  if (config_.reliability.retry.jitter <= 0.0) return backoff;
  const auto span = static_cast<std::uint64_t>(
      config_.reliability.retry.jitter * static_cast<double>(backoff.count()));
  return backoff + std::chrono::nanoseconds(jitter_rng_.next_below(span + 1));
}

void Proxy::run_loop() {
  const RetryConfig& retry = config_.reliability.retry;
  std::unique_lock lk(mu_);
  while (!stop_) {
    // Pre-order admission (DESIGN.md §14): acquire credits for the whole
    // round BEFORE it can reach the total order. A rejection is the
    // kOverloaded answer a real client would get; the wait below is that
    // client's backoff between re-asks. Credits are counted in commands.
    const std::uint64_t n_admit = config_.formation.batch_size;
    bool holds_credits = false;
    if (config_.admission.controller != nullptr) {
      const std::uint64_t adm_t0 = util::now_ns();
      std::chrono::nanoseconds prev{0};
      while (!stop_) {
        const AdmissionController::Decision decision =
            config_.admission.controller->try_admit(config_.proxy_id, n_admit);
        if (decision.admitted) {
          holds_credits = true;
          break;
        }
        admission_rejections_->add(1);
        std::chrono::nanoseconds wait;
        if (config_.reliability.honor_retry_after) {
          // Decorrelated jitter: uniform in [hint, 3·previous wait], capped
          // at the retry ceiling — grows away from the server's hint
          // without synchronizing the re-ask times of rejected clients.
          const auto hint =
              std::chrono::duration_cast<std::chrono::nanoseconds>(decision.retry_after);
          const std::uint64_t lo = static_cast<std::uint64_t>(hint.count());
          const std::uint64_t hi = std::max<std::uint64_t>(
              lo, static_cast<std::uint64_t>(prev.count()) * 3);
          wait = std::chrono::nanoseconds(lo + jitter_rng_.next_below(hi - lo + 1));
          const auto cap = std::chrono::duration_cast<std::chrono::nanoseconds>(retry.max);
          if (wait > cap) wait = cap;
          prev = wait;
        } else {
          // Naive client: ignores the hint, hammers on the ordinary retry
          // cadence — the storm the satellite regression test measures.
          wait = std::chrono::duration_cast<std::chrono::nanoseconds>(retry.initial);
        }
        all_done_.wait_for(lk, wait, [&] { return stop_; });
      }
      admission_wait_ns_->record(util::now_ns() - adm_t0);
      if (!holds_credits) break;  // stopped while shedding
    }
    lk.unlock();
    const Batch batch = build_round();  // kept for retransmission
    lk.lock();
    outstanding_.clear();
    for (const Command& c : batch.commands()) {
      outstanding_.insert(op_token(c.client_id, c.sequence));
    }
    lk.unlock();
    const std::uint64_t t0 = util::now_ns();
    broadcast_(std::make_unique<Batch>(batch));
    auto backoff = std::chrono::duration_cast<std::chrono::nanoseconds>(retry.initial);
    unsigned attempt = 1;
    bool completed = false;
    bool abandoned = false;
    lk.lock();
    for (;;) {
      // Wait for the first reply to every command in the batch (§VI) — but
      // only up to the retry deadline: fair-lossy links may have eaten the
      // batch or its responses.
      all_done_.wait_for(lk, backoff_with_jitter(backoff),
                         [&] { return outstanding_.empty() || stop_; });
      if (outstanding_.empty()) {
        completed = true;
        break;
      }
      if (stop_) break;  // stopped mid-round; don't count it
      if (retry.max_attempts != 0 && attempt >= retry.max_attempts) {
        outstanding_.clear();
        abandoned = true;
        break;
      }
      ++attempt;
      retransmits_->add(1);
      lk.unlock();
      // Replicas deduplicate through their session tables, so re-sending
      // an already-delivered batch costs one cached-response replay, never
      // a re-execution.
      auto resend = std::make_unique<Batch>(batch);
      resend->set_attempt(attempt);
      broadcast_(std::move(resend));
      lk.lock();
      backoff = std::min(
          std::chrono::nanoseconds(static_cast<std::int64_t>(
              static_cast<double>(backoff.count()) * retry.multiplier)),
          std::chrono::duration_cast<std::chrono::nanoseconds>(retry.max));
    }
    if (completed) {
      lk.unlock();
      latency_->record(util::now_ns() - t0);
      commands_completed_->add(batch.size());
      batches_completed_->add(1);
      lk.lock();
    } else if (abandoned) {
      batches_abandoned_->add(1);
    }
    // Credits return on every exit from the round (completed, abandoned, or
    // stopped mid-flight) — exactly once per successful try_admit.
    if (holds_credits) config_.admission.controller->release(config_.proxy_id, n_admit);
    // stop_ is re-checked by the while condition (still under mu_).
  }
}

void Proxy::on_response(const Response& r) {
  std::lock_guard lk(mu_);
  const auto it = outstanding_.find(op_token(r.client_id, r.sequence));
  if (it == outstanding_.end()) return;  // duplicate or stale response
  outstanding_.erase(it);
  if (outstanding_.empty()) all_done_.notify_one();
}

}  // namespace psmr::smr
