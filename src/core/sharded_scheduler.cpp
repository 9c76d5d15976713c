#include "core/sharded_scheduler.hpp"

#include <bit>

#include "util/assert.hpp"

namespace psmr::core {

ShardedScheduler::ShardedScheduler(SchedulerOptions options, Executor executor)
    : config_(std::move(options)),
      executor_(std::move(executor)),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : std::make_shared<obs::MetricsRegistry>()),
      m_(*metrics_),
      single_shard_metric_(&metrics_->counter("scheduler.batches_single_shard")),
      cross_shard_metric_(&metrics_->counter("scheduler.batches_cross_shard")) {
  config_.validate();
  PSMR_CHECK(executor_ != nullptr);
  if (config_.class_map != nullptr) {
    class_map_fp_.store(config_.class_map->fingerprint(), std::memory_order_relaxed);
  }
  shards_.reserve(config_.shards);
  for (unsigned s = 0; s < config_.shards; ++s) {
    SchedulerOptions sub = config_;
    // Each engine gets a private registry — `worker.N.*` and `scheduler.*`
    // names would collide in a shared one; stats() merges the engine
    // snapshots under `shard.N.` instead.
    sub.metrics = nullptr;
    sub.shards = 1;
    shards_.push_back(std::make_unique<Scheduler>(
        std::move(sub),
        [this, s](const smr::Batch& b) { execute_as_shard(s, b); }));
  }
  metrics_->gauge("scheduler.shards").set(static_cast<double>(config_.shards));
  metrics_->gauge("scheduler.workers")
      .set(static_cast<double>(config_.shards) * config_.workers);
}

ShardedScheduler::~ShardedScheduler() { stop(); }

void ShardedScheduler::start() {
  for (auto& shard : shards_) shard->start();
}

void ShardedScheduler::set_on_failure(FailureFn fn) {
  on_failure_ = std::move(fn);
  // A failed batch throws out of exactly one engine (its owner, or the
  // gate leader), so forwarding to every engine still fires the hook once
  // per failure.
  for (auto& shard : shards_) {
    shard->set_on_failure([this](const smr::Batch& b, const std::string& what) {
      if (on_failure_) on_failure_(b, what);
    });
  }
}

std::size_t ShardedScheduler::shard_of(smr::Key key) const noexcept {
  return smr::shard_of_key(key, static_cast<unsigned>(shards_.size()));
}

bool ShardedScheduler::deliver(smr::BatchPtr batch) {
  PSMR_CHECK(batch != nullptr);
  PSMR_CHECK(batch->sequence() != 0);
  const unsigned S = num_shards();
  // Use the mask stamped at batch-formation time when it matches our shard
  // count; otherwise recompute on the spot (one pass — correctness never
  // depends on the proxy agreeing with the replica, only cost does).
  std::uint64_t mask = batch->shard_count() == S
                           ? batch->shard_mask()
                           : smr::compute_shard_mask(*batch, S);
  if (mask == 0) mask = 1;  // empty batch: route to shard 0
  const int touched = std::popcount(mask);
  if (touched == 1) {
    // Fast path: the whole batch lives in one shard — no gate, no shared
    // state beyond that shard's own monitor.
    const auto s = static_cast<std::size_t>(std::countr_zero(mask));
    if (!shards_[s]->deliver(std::move(batch))) return false;
    m_.batches_delivered.add(1);
    single_shard_metric_->add(1);
    return true;
  }
  // Cross-shard batch: register the rendezvous gate FIRST (workers may take
  // the batch the instant it is inserted), then enqueue it into every
  // touched shard in ascending shard order. All replicas deliver in the
  // same total order, so every shard sees the same subsequence — the gate
  // is a delivery-order barrier.
  const std::shared_ptr<RendezvousGate> gate =
      gates_.open(batch->sequence(), static_cast<unsigned>(touched),
                  static_cast<std::size_t>(std::countr_zero(mask)));
  // Each leg blocks while its shard is full. Legs already inserted may be
  // taken meanwhile and park their workers in the gate; they resolve once
  // the full shard drains its older batches and takes its leg.
  std::uint64_t delivered = 0;
  for (std::uint64_t rest = mask; rest != 0; rest &= rest - 1) {
    const auto s = static_cast<std::size_t>(std::countr_zero(rest));
    if (!shards_[s]->deliver(batch)) break;  // stop() has begun
    delivered |= std::uint64_t{1} << s;
  }
  if (delivered != mask) {
    // stop() refused a leg: resolve the gate over the shards that hold the
    // batch, so their workers never wait for a leg that will not come.
    if (delivered == 0) {
      gates_.close(batch->sequence());
    } else {
      gate->shrink(static_cast<unsigned>(std::popcount(delivered)),
                   static_cast<std::size_t>(std::countr_zero(delivered)));
    }
    return false;
  }
  m_.batches_delivered.add(1);
  cross_shard_metric_->add(1);
  return true;
}

void ShardedScheduler::run_counted(const smr::Batch& batch) {
  if (const std::exception_ptr error = guarded_execute(executor_, batch)) {
    m_.batches_failed.add(1);
    std::rethrow_exception(error);  // the engine isolates it, fires on_failure
  }
  m_.count_executed(batch);
}

void ShardedScheduler::execute_as_shard(std::size_t shard_index,
                                        const smr::Batch& batch) {
  const std::shared_ptr<RendezvousGate> gate = gates_.find(batch.sequence());
  if (gate == nullptr) {
    // Single-shard batch: run it right here, on this shard's worker.
    run_counted(batch);
    return;
  }
  // Every touched shard has parked this batch's node when the leader runs:
  // all its local predecessors (in delivery order) are done in every
  // shard, so the leader executing now is exactly where the single
  // scheduler would execute it. Followers return normally — their engines
  // then release the batch's local dependents. Only the leader rethrows,
  // so a failure is accounted (and on_failure fired) exactly once, in the
  // leader's engine.
  gates_.rendezvous(*gate, batch.sequence(), shard_index, [&] { run_counted(batch); });
}

void ShardedScheduler::drain_to_sequence(std::uint64_t seq) {
  // Arm ALL shards before waiting on ANY: once armed, no shard starts a
  // batch newer than `seq`, so no worker can park in a rendezvous gate that
  // needs a still-draining shard. Batches <= seq (including cross-shard
  // ones) remain takeable everywhere and drain normally.
  for (auto& shard : shards_) shard->begin_barrier(seq);
  for (auto& shard : shards_) shard->await_barrier();
  metrics_->counter("scheduler.barriers").add(1);
}

void ShardedScheduler::release_barrier() {
  for (auto& shard : shards_) shard->release_barrier();
}

void ShardedScheduler::apply_class_map(
    std::shared_ptr<const smr::ConflictClassMap> map, std::uint64_t seq) {
  drain_to_sequence(seq);
  config_.class_map = std::move(map);
  class_map_fp_.store(
      config_.class_map != nullptr ? config_.class_map->fingerprint() : 0,
      std::memory_order_release);
  metrics_->counter("scheduler.repartitions").add(1);
  release_barrier();
}

void ShardedScheduler::wait_idle() {
  // Delivery has stopped mutating shard s once the caller is in here, and
  // a cross-shard batch stays resident in EVERY touched shard until its
  // gate resolves — so waiting shard by shard observes a true global
  // quiescent point.
  for (auto& shard : shards_) shard->wait_idle();
}

void ShardedScheduler::stop() {
  // Engines drain before joining; gates resolve because the not-yet-
  // stopped shards' workers keep running until their own stop(). Highest
  // shard first: deliver() inserts legs in ascending shard order, so a
  // delivery blocked on a full shard holds legs only in lower shards, and
  // stopping from the top refuses it before any of those is joined.
  for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) (*it)->stop();
}

bool ShardedScheduler::degraded() const {
  for (const auto& shard : shards_) {
    if (shard->degraded()) return true;
  }
  return false;
}

obs::Snapshot ShardedScheduler::stats() const {
  const auto single = static_cast<double>(single_shard_metric_->value());
  const auto cross = static_cast<double>(cross_shard_metric_->value());
  const double total = single + cross;
  metrics_->gauge("scheduler.cross_shard_fraction")
      .set(total == 0.0 ? 0.0 : cross / total);
  obs::Snapshot snap = metrics_->snapshot();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    snap.merge(shards_[s]->stats(), "shard." + std::to_string(s) + ".");
  }
  return snap;
}

void ShardedScheduler::check_invariants() const {
  for (const auto& shard : shards_) shard->check_invariants();
}

}  // namespace psmr::core
