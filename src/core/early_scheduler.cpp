#include "core/early_scheduler.hpp"

#include <bit>
#include <utility>

#include "util/assert.hpp"
#include "util/time.hpp"

namespace psmr::core {

namespace {
constexpr std::size_t kDefaultQueueCapacity = std::size_t{1} << 16;
}  // namespace

EarlyScheduler::EarlyScheduler(SchedulerOptions options, Executor executor)
    : config_(std::move(options)),
      executor_(std::move(executor)),
      map_(config_.class_map != nullptr
               ? config_.class_map
               : std::make_shared<const smr::ConflictClassMap>(
                     smr::ConflictClassMap::uniform(config_.workers))),
      map_fingerprint_(map_->fingerprint()),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : std::make_shared<obs::MetricsRegistry>()),
      m_(*metrics_, config_.workers, "early.worker."),
      fast_path_metric_(&metrics_->counter("early.batches_fast_path")),
      multi_class_metric_(&metrics_->counter("early.batches_multi_class")),
      fallback_metric_(&metrics_->counter("early.batches_fallback")),
      tracer_(config_.trace_capacity),
      bp_(*metrics_, config_.max_pending_batches),
      breaker_(*metrics_, config_.circuit_failure_threshold,
               config_.circuit_recovery_threshold) {
  config_.validate();
  PSMR_CHECK(executor_ != nullptr);
  // Participant ids are class workers 0..W-1 plus the fallback engine at
  // bit W, all in one 64-bit set — same cap as the class mask itself.
  PSMR_CHECK(config_.workers <= smr::ConflictClassMap::kMaxClasses);

  const std::size_t cap = config_.max_pending_batches != 0
                              ? config_.max_pending_batches
                              : kDefaultQueueCapacity;
  queue_capacity_ = cap;
  workers_.reserve(config_.workers);
  for (unsigned w = 0; w < config_.workers; ++w) {
    auto worker = std::make_unique<Worker>(cap);
    worker->depth_metric =
        &metrics_->histogram("early.worker." + std::to_string(w) + ".queue_depth");
    workers_.push_back(std::move(worker));
  }

  // The embedded graph engine runs unclassified batches with the exact
  // mechanism of the single Scheduler (same conflict mode/index knobs). It
  // publishes into a private registry (stats() merges it under `fallback.`)
  // and leaves tracing to the outer tracer.
  SchedulerOptions sub = config_;
  sub.metrics = nullptr;
  sub.class_map = nullptr;
  sub.trace_capacity = 0;
  fallback_ = std::make_unique<Scheduler>(
      std::move(sub), [this](const smr::Batch& b) {
        tracer_.record(b.sequence(), obs::Stage::kReady);
        tracer_.record(b.sequence(), obs::Stage::kTaken);
        const std::size_t me = num_class_workers();
        const std::shared_ptr<RendezvousGate> gate = gates_.find(b.sequence());
        if (gate == nullptr) {
          // Pure fallback batch: the engine isolates faults, fires the
          // forwarded on_failure, and runs its own circuit breaker.
          run_batch(me, b);
        } else {
          gates_.rendezvous(*gate, b.sequence(), me, [&] { run_batch(me, b); });
        }
      });

  metrics_->gauge("early.classes").set(static_cast<double>(map_->num_classes()));
  metrics_->gauge("early.class_workers").set(static_cast<double>(config_.workers));
}

EarlyScheduler::~EarlyScheduler() { stop(); }

void EarlyScheduler::start() {
  PSMR_CHECK(!started_.exchange(true));
  fallback_->start();
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    workers_[w]->thread = std::thread([this, w] { worker_loop(w); });
  }
}

void EarlyScheduler::set_on_failure(FailureFn fn) {
  on_failure_ = std::move(fn);
  // Pure-fallback failures (and fallback-led gate failures) throw out of
  // the embedded engine, which fires this forward exactly once; class-
  // worker paths call on_failure_ directly.
  fallback_->set_on_failure([this](const smr::Batch& b, const std::string& what) {
    if (on_failure_) on_failure_(b, what);
  });
}

std::uint64_t EarlyScheduler::participants_of(std::uint64_t class_mask) const noexcept {
  const unsigned W = num_class_workers();
  std::uint64_t pset = 0;
  std::uint64_t classes = class_mask & ~smr::ConflictClassMap::kUnclassifiedBit;
  while (classes != 0) {
    const auto cls = static_cast<std::uint32_t>(std::countr_zero(classes));
    pset |= std::uint64_t{1} << smr::ConflictClassMap::worker_of_class(cls, W);
    classes &= classes - 1;
  }
  if ((class_mask & smr::ConflictClassMap::kUnclassifiedBit) != 0) {
    pset |= std::uint64_t{1} << W;
  }
  return pset;
}

bool EarlyScheduler::deliver(smr::BatchPtr batch) {
  PSMR_CHECK(batch != nullptr);
  PSMR_CHECK(batch->sequence() != 0);
  std::unique_lock lifecycle(lifecycle_mu_);
  if (stopping_.load(std::memory_order_relaxed)) return false;
  const std::uint64_t seq = batch->sequence();
  tracer_.begin(seq);
  // Trust the class mask stamped before delivery only when it was
  // computed under our exact map; otherwise recompute (one pass).
  std::uint64_t mask = batch->class_map_fingerprint() == map_fingerprint_
                           ? batch->class_mask()
                           : smr::compute_class_mask(*batch, *map_);
  if (mask == 0) mask = 1;  // empty batch: route to class 0's worker
  const std::uint64_t pset = participants_of(mask);
  const int touched = std::popcount(pset);
  const std::uint64_t fallback_bit = std::uint64_t{1} << num_class_workers();

  if (touched == 1 && pset != fallback_bit) {
    // FAST PATH: one owning worker — the scheduling decision was made at
    // configuration time; delivery is a FIFO push.
    const auto w = static_cast<std::size_t>(std::countr_zero(pset));
    if (!push_item(lifecycle, w, Item{std::move(batch), nullptr, 0})) return false;
    tracer_.record(seq, obs::Stage::kInserted);
    m_.batches_delivered.add(1);
    fast_path_metric_->add(1);
    publish_depth();
    return true;
  }
  if (pset == fallback_bit) {
    // Every command unclassified: plain graph insertion. The engine blocks
    // while its graph is full, so stop() must be able to begin meanwhile.
    lifecycle.unlock();
    if (!fallback_->deliver(std::move(batch))) return false;
    tracer_.record(seq, obs::Stage::kInserted);
    m_.batches_delivered.add(1);
    fallback_metric_->add(1);
    publish_depth();
    return true;
  }
  // MULTI-CLASS (and/or mixed classified+unclassified): register the
  // delivery-sequence-keyed gate FIRST, then hand the batch to every
  // touched participant in ascending order. All replicas deliver in the
  // same total order, so every participant sees the same subsequence. Each
  // leg blocks while its participant is full; legs already handed over
  // park their workers in the gate until the rest arrive.
  const auto leader = static_cast<std::size_t>(std::countr_zero(pset));
  const std::shared_ptr<RendezvousGate> gate =
      gates_.open(seq, static_cast<unsigned>(touched), leader);
  std::uint64_t delivered = 0;
  for (std::uint64_t rest = pset & (fallback_bit - 1); rest != 0; rest &= rest - 1) {
    const auto w = static_cast<std::size_t>(std::countr_zero(rest));
    if (!push_item(lifecycle, w, Item{batch, gate, 0})) break;
    delivered |= std::uint64_t{1} << w;
  }
  if ((pset & fallback_bit) != 0 && delivered == (pset & (fallback_bit - 1))) {
    lifecycle.unlock();
    if (fallback_->deliver(batch)) delivered |= fallback_bit;
  }
  if (delivered != pset) {
    // stop() refused a leg: resolve the gate over the participants that
    // hold the batch, so their workers never wait for a leg that will not
    // come.
    if (delivered == 0) {
      gates_.close(seq);
    } else {
      gate->shrink(static_cast<unsigned>(std::popcount(delivered)),
                   static_cast<std::size_t>(std::countr_zero(delivered)));
    }
    return false;
  }
  tracer_.record(seq, obs::Stage::kInserted);
  m_.batches_delivered.add(1);
  multi_class_metric_->add(1);
  if ((mask & smr::ConflictClassMap::kUnclassifiedBit) != 0) {
    fallback_metric_->add(1);
  }
  publish_depth();
  return true;
}

void EarlyScheduler::publish_depth() {
  std::uint64_t deepest = 0;
  for (const auto& w : workers_) {
    deepest = std::max(deepest, w->pending.load(std::memory_order_relaxed));
  }
  bp_.update(static_cast<std::size_t>(deepest));
}

bool EarlyScheduler::push_item(std::unique_lock<std::mutex>& lifecycle, std::size_t w,
                               Item item) {
  Worker& worker = *workers_[w];
  // `pending` counts pushed-but-uncompleted items, an upper bound on ring
  // occupancy: once it is below capacity, the push below finds room.
  if (worker.pending.load(std::memory_order_acquire) >= queue_capacity_) {
    const std::uint64_t t0 = util::now_ns();
    do {
      // Wait without the lifecycle lock so stop() can begin; the worker
      // keeps draining its queue either way.
      lifecycle.unlock();
      std::this_thread::yield();
      lifecycle.lock();
      if (stopping_.load(std::memory_order_relaxed)) return false;
    } while (worker.pending.load(std::memory_order_acquire) >= queue_capacity_);
    bp_.count_wait(util::now_ns() - t0);
  }
  item.pushed_ns = util::now_ns();
  worker.pending.fetch_add(1, std::memory_order_relaxed);
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  worker.depth_metric->record(worker.queue.approx_size());
  const bool pushed = worker.queue.try_push(std::move(item));
  PSMR_CHECK(pushed);
  // Dekker-style wakeup: the push above is visible before this load; the
  // worker sets `sleeping` before its final empty re-check.
  if (worker.sleeping.load(std::memory_order_seq_cst)) {
    std::lock_guard lk(worker.mu);
    worker.cv.notify_one();
  }
  return true;
}

void EarlyScheduler::worker_loop(std::size_t w) {
  Worker& me = *workers_[w];
  for (;;) {
    std::optional<Item> popped = me.queue.try_pop();
    if (!popped) {
      std::unique_lock lk(me.mu);
      me.sleeping.store(true, std::memory_order_seq_cst);
      popped = me.queue.try_pop();
      if (!popped) {
        if (stopping_.load(std::memory_order_acquire)) {
          me.sleeping.store(false, std::memory_order_relaxed);
          return;
        }
        me.cv.wait(lk);
        me.sleeping.store(false, std::memory_order_relaxed);
        continue;
      }
      me.sleeping.store(false, std::memory_order_relaxed);
    }
    Item item = std::move(*popped);
    const std::uint64_t seq = item.batch->sequence();
    // Quiesce barrier: the queue is a delivery-order subsequence, so the
    // first item past the barrier sequence means everything behind it is
    // also past — park right here.
    if (barrier_armed_.load(std::memory_order_acquire) &&
        seq > barrier_seq_.load(std::memory_order_relaxed)) {
      std::unique_lock lk(barrier_mu_);
      if (barrier_armed_.load(std::memory_order_relaxed)) {
        me.parked_seq.store(seq, std::memory_order_relaxed);
        barrier_cv_.notify_all();  // awaiter re-checks the quiesce condition
        release_cv_.wait(lk, [&] {
          return !barrier_armed_.load(std::memory_order_relaxed) ||
                 stopping_.load(std::memory_order_relaxed);
        });
        me.parked_seq.store(0, std::memory_order_relaxed);
      }
    }
    process_item(w, item);
  }
}

void EarlyScheduler::process_item(std::size_t w, Item& item) {
  const smr::Batch& batch = *item.batch;
  const std::uint64_t seq = batch.sequence();
  m_.queue_wait_ns->record(util::now_ns() - item.pushed_ns);
  tracer_.record(seq, obs::Stage::kReady);
  tracer_.record(seq, obs::Stage::kTaken);
  if (item.gate == nullptr) {
    run_batch(w, batch);
  } else {
    // The leader runs once every touched participant has parked this batch
    // at the head of its delivery-order stream: all predecessors sharing a
    // class (or an unclassified key) with it are done, so executing then is
    // exactly where the single Scheduler would execute it.
    gates_.rendezvous(*item.gate, seq, w, [&] { run_batch(w, batch); });
  }
  // Publish the depth change BEFORE complete_one's barrier notification:
  // the quiesce predicate reads `pending`, so notifying first would let the
  // awaiter observe the stale count and sleep through the last wakeup.
  workers_[w]->pending.fetch_sub(1, std::memory_order_release);
  complete_one();
}

void EarlyScheduler::run_batch(std::size_t participant, const smr::Batch& batch) {
  const bool class_worker = participant < num_class_workers();
  // Degraded mode serializes the class workers to one batch in flight;
  // effects of non-conflicting batches commute, so the interleaving change
  // cannot diverge replicas.
  const std::exception_ptr error = guarded_execute(
      [&](const smr::Batch& b) {
        if (class_worker && breaker_.degraded()) {
          std::lock_guard serial(serial_mu_);
          executor_(b);
        } else {
          executor_(b);
        }
      },
      batch);
  tracer_.record_executed(batch.sequence(), static_cast<std::uint32_t>(participant),
                          error != nullptr);
  tracer_.record(batch.sequence(), obs::Stage::kRemoved);
  if (error == nullptr) {
    m_.count_executed(batch);
    if (!class_worker) return;
    m_.worker_batches[participant]->add(1);
    std::lock_guard lk(circuit_mu_);
    breaker_.on_success();
    return;
  }
  m_.batches_failed.add(1);
  // The fallback engine isolates the failure, runs its own breaker and
  // fires the forwarded on_failure exactly once.
  if (!class_worker) std::rethrow_exception(error);
  {
    std::lock_guard lk(circuit_mu_);
    breaker_.on_failure();
  }
  if (on_failure_) on_failure_(batch, failure_message(error));
}

void EarlyScheduler::complete_one() {
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard lk(idle_mu_);
    idle_cv_.notify_all();
  }
  if (barrier_armed_.load(std::memory_order_acquire)) {
    std::lock_guard lk(barrier_mu_);
    barrier_cv_.notify_all();
  }
}

void EarlyScheduler::begin_barrier(std::uint64_t seq) {
  PSMR_CHECK(!barrier_armed_.load(std::memory_order_relaxed));
  // Arm EVERYTHING before awaiting anything: no participant may start a
  // batch newer than `seq`, while batches <= seq — including gated ones —
  // stay runnable everywhere.
  fallback_->begin_barrier(seq);
  {
    std::lock_guard lk(barrier_mu_);
    barrier_seq_.store(seq, std::memory_order_relaxed);
    barrier_armed_.store(true, std::memory_order_release);
  }
  metrics_->counter("scheduler.barriers").add(1);
}

void EarlyScheduler::await_barrier() {
  PSMR_CHECK(barrier_armed_.load(std::memory_order_relaxed));
  // Gated batches <= seq may need both sides; each side admits the whole
  // <= seq prefix, so draining the graph first cannot deadlock against the
  // class workers (delivery-order induction, DESIGN.md §13).
  fallback_->await_barrier();
  const std::uint64_t seq = barrier_seq_.load(std::memory_order_relaxed);
  std::unique_lock lk(barrier_mu_);
  barrier_cv_.wait(lk, [&] {
    if (stopping_.load(std::memory_order_relaxed)) return true;
    for (const auto& w : workers_) {
      const bool quiesced = w->pending.load(std::memory_order_acquire) == 0 ||
                            w->parked_seq.load(std::memory_order_acquire) > seq;
      if (!quiesced) return false;
    }
    return true;
  });
}

void EarlyScheduler::release_barrier() {
  {
    std::lock_guard lk(barrier_mu_);
    if (!barrier_armed_.load(std::memory_order_relaxed)) {
      fallback_->release_barrier();
      return;
    }
    barrier_armed_.store(false, std::memory_order_release);
  }
  release_cv_.notify_all();
  fallback_->release_barrier();
}

void EarlyScheduler::drain_to_sequence(std::uint64_t seq) {
  begin_barrier(seq);
  await_barrier();
}

void EarlyScheduler::wait_idle() {
  {
    std::unique_lock lk(idle_mu_);
    idle_cv_.wait(lk, [&] {
      return outstanding_.load(std::memory_order_acquire) == 0;
    });
  }
  // Once the class workers are drained, the only remaining work is pure
  // fallback (a gated batch stays outstanding in every touched class
  // worker until its gate resolves, and resident in the graph until its
  // wrapper returns).
  fallback_->wait_idle();
}

void EarlyScheduler::stop() {
  {
    // Released before the joins below: a deliver() waiting for queue room
    // must re-take it to see `stopping_` and resolve its gate.
    std::lock_guard lifecycle(lifecycle_mu_);
    stopping_.store(true, std::memory_order_seq_cst);
  }
  // Unpark any barrier-held workers (contract: release_barrier() before
  // stop(); tolerated anyway — stopping drains everything).
  {
    std::lock_guard lk(barrier_mu_);
  }
  release_cv_.notify_all();
  barrier_cv_.notify_all();
  for (auto& w : workers_) {
    std::lock_guard lk(w->mu);
    w->cv.notify_all();
  }
  // Class workers drain their queues (gates <= resolve because the
  // fallback engine keeps running until its own stop below), then exit.
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  fallback_->stop();
}

bool EarlyScheduler::degraded() const {
  return breaker_.degraded() || fallback_->degraded();
}

obs::Snapshot EarlyScheduler::stats() const {
  const auto fast = static_cast<double>(fast_path_metric_->value());
  const auto total = static_cast<double>(m_.batches_delivered.value());
  metrics_->gauge("early.fast_path_fraction").set(total == 0.0 ? 0.0 : fast / total);
  obs::Snapshot snap = metrics_->snapshot();
  snap.merge(fallback_->stats(), "fallback.");
  return snap;
}

void EarlyScheduler::check_invariants() const { fallback_->check_invariants(); }

}  // namespace psmr::core
