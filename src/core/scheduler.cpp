#include "core/scheduler.hpp"

#include "util/assert.hpp"
#include "util/time.hpp"

namespace psmr::core {

Scheduler::Scheduler(SchedulerOptions options, Executor executor)
    : config_(std::move(options)),
      executor_(std::move(executor)),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : std::make_shared<obs::MetricsRegistry>()),
      m_(*metrics_, config_.workers),
      tracer_(config_.trace_capacity),
      bp_(*metrics_, config_.max_pending_batches),
      breaker_(*metrics_, config_.circuit_failure_threshold,
               config_.circuit_recovery_threshold),
      graph_(config_.mode) {
  config_.validate();
  PSMR_CHECK(executor_ != nullptr);
  metrics_->gauge("scheduler.workers").set(static_cast<double>(config_.workers));
  graph_.set_tracer(&tracer_);
}

Scheduler::~Scheduler() { stop(); }

void Scheduler::start() {
  std::lock_guard lk(mu_);
  PSMR_CHECK(!started_);
  started_ = true;
  workers_.reserve(config_.workers);
  for (unsigned i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

bool Scheduler::deliver(smr::BatchPtr batch) {
  PSMR_CHECK(batch != nullptr);
  PSMR_CHECK(batch->sequence() != 0);  // assigned by the total order
  // The lifecycle record starts at the scheduler's doorstep, before any
  // preparation or queueing — backpressure waits show up as delivered →
  // inserted gaps.
  tracer_.begin(batch->sequence());
  // Probe metadata (position hashing / digest positions) is computed BEFORE
  // taking the monitor — prepare() is const and reads only the immutable
  // configuration — so the serialized section pays only for the index
  // lookup and the candidate tests.
  DependencyGraph::Prepared probe = graph_.prepare(std::move(batch));
  std::unique_lock lk(mu_);
  if (config_.max_pending_batches != 0) {
    bp_.wait_for_space(lk, space_free_, [&] {
      return stopping_ || graph_.size() < config_.max_pending_batches;
    });
  }
  if (stopping_) return false;
  graph_.insert(std::move(probe));
  bp_.update(graph_.size());
  m_.batches_delivered.add(1);
  // The new batch may be immediately free; wake one worker (line 14–16:
  // the scheduler keeps delivering, workers pull).
  lk.unlock();
  batch_ready_.notify_one();
  return true;
}

void Scheduler::wait_idle() {
  std::unique_lock lk(mu_);
  idle_.wait(lk, [&] { return graph_.empty(); });
}

void Scheduler::stop() {
  {
    std::lock_guard lk(mu_);
    if (stopping_) {
      // Already stopping; fall through to join (idempotence for callers
      // racing the destructor).
    }
    stopping_ = true;
  }
  batch_ready_.notify_all();
  space_free_.notify_all();
  barrier_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

void Scheduler::begin_barrier(std::uint64_t seq) {
  std::lock_guard lk(mu_);
  PSMR_CHECK(!barrier_armed_);  // one barrier at a time
  barrier_armed_ = true;
  barrier_seq_ = seq;
  metrics_->counter("scheduler.barriers").add(1);
}

void Scheduler::await_barrier() {
  std::unique_lock lk(mu_);
  PSMR_CHECK(barrier_armed_);
  // Workers notify barrier_cv_ on every remove while the barrier is armed;
  // quiescence = no batch <= the barrier sequence left in the graph (free,
  // blocked, or under execution).
  barrier_cv_.wait(lk, [&] {
    return stopping_ || graph_.resident_leq(barrier_seq_) == 0;
  });
}

void Scheduler::release_barrier() {
  {
    std::lock_guard lk(mu_);
    if (!barrier_armed_) return;
    barrier_armed_ = false;
  }
  // Every batch the barrier held back may now be takeable.
  batch_ready_.notify_all();
}

void Scheduler::drain_to_sequence(std::uint64_t seq) {
  begin_barrier(seq);
  await_barrier();
}

obs::Snapshot Scheduler::stats() const {
  {
    std::lock_guard lk(mu_);
    publish_graph_stats(graph_, tracer_, *metrics_, published_);
  }
  return metrics_->snapshot();
}

std::size_t Scheduler::graph_size() const {
  std::lock_guard lk(mu_);
  return graph_.size();
}

void Scheduler::check_invariants() const {
  std::lock_guard lk(mu_);
  graph_.check_invariants();
}

void Scheduler::worker_loop(unsigned worker_index) {
  std::unique_lock lk(mu_);
  for (;;) {
    DependencyGraph::Node* node =
        can_take_locked() ? graph_.take_oldest_free_leq(take_limit_locked())
                          : nullptr;
    if (node == nullptr) {
      if (stopping_ && graph_.empty()) return;
      if (stopping_ && graph_.num_free() == 0 && graph_.size() > 0) {
        // Drain mode: remaining batches are blocked on taken ones being
        // executed by peers; wait for them to finish.
      }
      batch_ready_.wait(lk, [&] {
        // A free batch beyond an armed barrier is NOT takeable — workers
        // park here until release_barrier() re-opens the gate. The
        // num_free() guard matters: with nothing free AND no barrier,
        // min_free_seq() and take_limit_locked() are both the max sentinel
        // and the comparison alone would be vacuously true.
        return (graph_.num_free() > 0 &&
                graph_.min_free_seq() <= take_limit_locked() &&
                can_take_locked()) ||
               (stopping_ && graph_.empty());
      });
      continue;
    }
    const smr::BatchPtr batch = node->batch;  // keep alive across remove()
    const std::uint64_t inserted_at_ns = node->inserted_at_ns;
    const std::uint64_t seq = node->seq;
    lk.unlock();
    // Queue-wait semantics: recorded exactly ONCE per batch, at take time,
    // measuring insert → take. Nodes are taken exactly once even when the
    // executor later fails (failed batches are removed, never re-enqueued),
    // so histogram count == batches executed + batches failed. The striped
    // histogram keeps this off the scheduling critical section.
    m_.queue_wait_ns.record(util::now_ns() - inserted_at_ns);
    // Line 45: execute commands in their order. A throwing executor must
    // not kill the worker or wedge the graph: the batch is accounted as
    // failed, removed below like any other (dependents unblock), and the
    // loop continues.
    const std::exception_ptr error = guarded_execute(executor_, *batch);
    tracer_.record_executed(seq, worker_index, error != nullptr);
    if (error != nullptr && on_failure_) on_failure_(*batch, failure_message(error));
    lk.lock();
    const std::size_t freed = graph_.remove(node);
    bp_.update(graph_.size());
    // Counter bumps happen under mu_ so a wait_idle()-then-stats() caller
    // observes every increment (the idle notify below synchronizes).
    bool recovered_now = false;
    if (error == nullptr) {
      m_.count_executed(*batch);
      m_.worker_batches[worker_index]->add(1);
      recovered_now = breaker_.on_success();
    } else {
      // A failed batch never counts as executed — no false "executed"
      // state leaks into the stats consumers (tests, quiesce loops).
      m_.batches_failed.add(1);
      breaker_.on_failure();  // a trip means sequential single-batch mode
    }
    // Deferred wake tokens: the decisions are made under the lock, but the
    // notifies fire after it is released — replacing the previous
    // unlock/notify/lock dance (up to three mutex round-trips per batch)
    // with a single release/notify/re-acquire.
    const bool wake_all_ready =
        (freed > 1 && can_take_locked()) ||
        // Leaving degraded mode re-opens the concurrency gate for every
        // already-free batch, not just the ones this remove() freed.
        (recovered_now && graph_.num_free() > 0);
    // Degraded mode: finishing this batch may unpark a peer even when
    // nothing new became free (the in-flight gate just opened).
    const bool wake_one_ready =
        !wake_all_ready &&
        (freed >= 1 || (breaker_.degraded() && graph_.num_free() > 0));
    const bool wake_space = config_.max_pending_batches != 0;
    // Barrier progress: every remove while armed may be the one that
    // empties the <= barrier_seq_ prefix (checkpoints are rare, so the
    // extra notify costs nothing on the steady-state path).
    const bool wake_barrier = barrier_armed_;
    const bool now_empty = graph_.empty();
    const bool exit_now = now_empty && stopping_;
    lk.unlock();
    if (wake_all_ready) batch_ready_.notify_all();
    if (wake_one_ready) batch_ready_.notify_one();
    if (wake_space) space_free_.notify_one();
    if (wake_barrier) barrier_cv_.notify_all();
    if (now_empty) {
      idle_.notify_all();
      if (exit_now) {
        batch_ready_.notify_all();  // release peers waiting for work
        return;
      }
    }
    lk.lock();
  }
}

}  // namespace psmr::core
