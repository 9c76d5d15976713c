#include "core/pipelined_scheduler.hpp"

#include <limits>

#include "util/assert.hpp"
#include "util/time.hpp"

namespace psmr::core {

PipelinedScheduler::PipelinedScheduler(SchedulerOptions options, Executor executor)
    : config_(std::move(options)),
      executor_(std::move(executor)),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : std::make_shared<obs::MetricsRegistry>()),
      m_(*metrics_, config_.workers),
      tracer_(config_.trace_capacity),
      bp_(*metrics_, config_.max_pending_batches),
      graph_(config_.mode),
      breaker_(*metrics_, config_.circuit_failure_threshold,
               config_.circuit_recovery_threshold) {
  config_.validate();
  PSMR_CHECK(executor_ != nullptr);
  metrics_->gauge("scheduler.workers").set(static_cast<double>(config_.workers));
  graph_.set_tracer(&tracer_);
}

PipelinedScheduler::~PipelinedScheduler() { stop(); }

void PipelinedScheduler::start() {
  PSMR_CHECK(!started_);
  started_ = true;
  scheduler_thread_ = std::thread([this] { scheduler_loop(); });
  workers_.reserve(config_.workers);
  for (unsigned i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

bool PipelinedScheduler::deliver(smr::BatchPtr batch) {
  PSMR_CHECK(batch != nullptr);
  PSMR_CHECK(batch->sequence() != 0);
  if (config_.max_pending_batches != 0) {
    std::unique_lock lk(idle_mu_);
    bp_.wait_for_space(lk, idle_cv_, [&] {
      return stopping_.load(std::memory_order_relaxed) ||
             outstanding_.load(std::memory_order_relaxed) < config_.max_pending_batches;
    });
    if (stopping_.load(std::memory_order_relaxed)) return false;
    // Admit under the lock: the watermark state machine is serialized on
    // idle_mu_ against the completion path's update below.
    bp_.update(outstanding_.fetch_add(1, std::memory_order_relaxed) + 1);
  } else {
    if (stopping_.load(std::memory_order_relaxed)) return false;
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    bp_.update(outstanding_.load(std::memory_order_relaxed));  // gauge only
  }
  // Stamp the lifecycle start before the probe computation so preparation
  // and event-queue time are visible as delivered → inserted latency.
  tracer_.begin(batch->sequence());
  if (!events_.push(Event{Delivery{graph_.prepare(std::move(batch))}})) {
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  m_.batches_delivered.add(1);
  return true;
}

void PipelinedScheduler::wait_idle() {
  std::unique_lock lk(idle_mu_);
  idle_cv_.wait(lk, [&] { return outstanding_.load(std::memory_order_relaxed) == 0; });
}

void PipelinedScheduler::begin_barrier(std::uint64_t seq) {
  PSMR_CHECK(!barrier_public_.exchange(true));  // one barrier at a time
  {
    std::lock_guard lk(barrier_mu_);
    barrier_quiesced_ = false;
  }
  metrics_->counter("scheduler.barriers").add(1);
  // A false push means the event queue was closed by stop(); await_barrier()
  // then unblocks on stopping_ instead of quiescence.
  (void)events_.push(Event{BarrierArm{seq}});
}

void PipelinedScheduler::await_barrier() {
  PSMR_CHECK(barrier_public_.load(std::memory_order_relaxed));
  std::unique_lock lk(barrier_mu_);
  barrier_cv_.wait(lk, [&] {
    return barrier_quiesced_ || stopping_.load(std::memory_order_relaxed);
  });
}

void PipelinedScheduler::release_barrier() {
  if (!barrier_public_.exchange(false)) return;  // idempotent
  // After stop() closes the queue there is no armed barrier left to release.
  (void)events_.push(Event{BarrierRelease{}});
}

void PipelinedScheduler::drain_to_sequence(std::uint64_t seq) {
  begin_barrier(seq);
  await_barrier();
}

void PipelinedScheduler::stop() {
  if (!started_) return;
  if (!stopping_.load(std::memory_order_relaxed)) {
    wait_idle();  // drain everything already delivered
    stopping_.store(true, std::memory_order_relaxed);
    idle_cv_.notify_all();
    {
      std::lock_guard lk(barrier_mu_);
    }
    barrier_cv_.notify_all();  // release an await_barrier() raced by stop
  }
  events_.close();
  ready_.close();
  if (scheduler_thread_.joinable()) scheduler_thread_.join();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

obs::Snapshot PipelinedScheduler::stats() const {
  {
    std::lock_guard lk(stats_mu_);
    publish_graph_stats(graph_, tracer_, *metrics_, published_);
  }
  return metrics_->snapshot();
}

void PipelinedScheduler::scheduler_loop() {
  // Degraded-mode gate, mirroring Scheduler::can_take_locked(): while the
  // circuit is tripped, at most one batch is in flight at a time. Outside
  // degraded mode every free node is dispatched.
  auto dispatch_free = [&] {
    while (!(breaker_.degraded() && inflight_ > 0)) {
      // An armed barrier caps dispatch at the barrier sequence; everything
      // newer stays parked in the graph until BarrierRelease.
      DependencyGraph::Node* node = graph_.take_oldest_free_leq(
          barrier_armed_ ? barrier_seq_
                         : std::numeric_limits<std::uint64_t>::max());
      if (node == nullptr) break;
      if (!ready_.push(node)) break;  // closed by stop(); no worker will run it
      ++inflight_;
    }
  };
  // Quiescence check, run after every event that can shrink the <= barrier
  // prefix: signals the await_barrier() caller once nothing at or below the
  // barrier sequence is resident (dispatched-but-unfinished nodes are still
  // resident — their Completion has not come back).
  auto maybe_signal_barrier = [&] {
    if (!barrier_armed_ || graph_.resident_leq(barrier_seq_) != 0) return;
    {
      std::lock_guard lk(barrier_mu_);
      barrier_quiesced_ = true;
    }
    barrier_cv_.notify_all();
  };
  while (auto event = events_.pop()) {
    std::unique_lock stats_lk(stats_mu_);
    if (auto* delivery = std::get_if<Delivery>(&*event)) {
      graph_.insert(std::move(delivery->probe));
      dispatch_free();
    } else if (auto* arm = std::get_if<BarrierArm>(&*event)) {
      barrier_armed_ = true;
      barrier_seq_ = arm->seq;
      maybe_signal_barrier();  // the prefix may already be drained
    } else if (std::get_if<BarrierRelease>(&*event) != nullptr) {
      barrier_armed_ = false;
      dispatch_free();  // everything the barrier held back
    } else {
      auto& completion = std::get<Completion>(*event);
      graph_.remove(completion.node);
      --inflight_;
      // Circuit accounting runs on this thread only (completions arrive
      // through the event queue), which serializes the breaker.
      if (completion.failed) {
        breaker_.on_failure();
      } else {
        breaker_.on_success();
      }
      dispatch_free();
      maybe_signal_barrier();
      stats_lk.unlock();
      const bool reached_idle =
          outstanding_.fetch_sub(1, std::memory_order_relaxed) == 1;
      if (reached_idle || config_.max_pending_batches != 0) {
        // Take the mutex (even though the counter is atomic) so a waiter
        // caught between its predicate check and cv wait cannot miss the
        // wakeup.
        std::lock_guard lk(idle_mu_);
        bp_.update(outstanding_.load(std::memory_order_relaxed));
        idle_cv_.notify_all();
      }
    }
  }
}

void PipelinedScheduler::worker_loop(unsigned worker_index) {
  while (auto node = ready_.pop()) {
    const smr::BatchPtr batch = (*node)->batch;  // keep alive across remove
    // Once per take (the node is dispatched to exactly one worker), insert
    // → pop: the same queue-wait semantics as the monitor scheduler.
    m_.queue_wait_ns->record(util::now_ns() - (*node)->inserted_at_ns);
    const std::uint64_t seq = (*node)->seq;
    // Fault isolation (parity with Scheduler::worker_loop): a throwing
    // executor must not kill the worker or wedge the graph. The Completion
    // carries the verdict back to the graph-owner thread, which runs the
    // circuit breaker.
    const std::exception_ptr error = guarded_execute(executor_, *batch);
    tracer_.record_executed(seq, worker_index, /*failed=*/error != nullptr);
    if (error == nullptr) {
      m_.count_executed(*batch);
      m_.worker_batches[worker_index]->add(1);
    } else {
      // A failed batch never counts as executed (stats parity with the
      // monitor scheduler).
      m_.batches_failed.add(1);
      if (on_failure_) on_failure_(*batch, failure_message(error));
    }
    // Closed only during stop(), which drained via wait_idle() first — a
    // lost Completion here has no accounting left to update.
    (void)events_.push(Event{Completion{*node, /*failed=*/error != nullptr}});
  }
}

}  // namespace psmr::core
