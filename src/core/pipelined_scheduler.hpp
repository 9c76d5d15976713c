// Pipelined scheduler — a contention-free alternative to the paper's
// monitor design (extension; the paper's §VII-C observes that "the
// synchronization cost caused by the scheduler" limits scalability).
//
// The monitor scheduler serializes dgInsert/dgGet/dgRemove of ALL threads
// on one mutex. Here the dependency graph has a SINGLE owner — a dedicated
// scheduler thread — and the mutex disappears from the graph entirely:
//
//   delivery thread ──deliver()──► event queue ─┐
//   workers ──────────completions─► event queue ─┤
//                                                ▼
//                                     scheduler thread (owns the graph):
//                                       drain completions → dgRemove
//                                       drain deliveries  → dgInsert
//                                       free nodes        → ready queue
//                                                │
//                        workers ◄── ready queue ┘ (pop, execute, complete)
//
// Same algorithm, same dependency semantics, same per-key ordering — only
// the synchronization discipline changes (message passing instead of shared
// locking). All correctness tests of the monitor scheduler run against this
// class too.
//
// Construction and observability mirror the monitor Scheduler: one
// SchedulerOptions struct, one obs::Snapshot export, the same metric names
// (DESIGN.md §10) — the two variants are interchangeable to every consumer.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <variant>
#include <vector>

#include "core/backpressure.hpp"
#include "core/dependency_graph.hpp"
#include "core/engine_parts.hpp"
#include "core/scheduler_options.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "smr/batch.hpp"
#include "util/blocking_queue.hpp"

namespace psmr::core {

class PipelinedScheduler {
 public:
  /// Invoked (on the worker thread, outside any scheduler state) when an
  /// executor throws — same contract as Scheduler::FailureFn.
  using FailureFn = std::function<void(const smr::Batch&, const std::string&)>;

  using Executor = std::function<void(const smr::Batch&)>;

  PipelinedScheduler(SchedulerOptions options, Executor executor);
  ~PipelinedScheduler();

  PipelinedScheduler(const PipelinedScheduler&) = delete;
  PipelinedScheduler& operator=(const PipelinedScheduler&) = delete;

  void start();

  /// Same contract as Scheduler::deliver(): blocks while
  /// max_pending_batches batches are outstanding, and returns false only
  /// once stop() has begun.
  bool deliver(smr::BatchPtr batch);
  void wait_idle();
  void stop();

  /// Checkpoint barrier — same contract as Scheduler::begin_barrier et al.
  /// (DESIGN.md §12), realized through the event queue: the graph-owner
  /// thread stops dispatching free nodes newer than `seq` and reports
  /// quiescence once the <= seq prefix has fully completed and been
  /// removed. deliver() keeps accepting while the barrier is armed.
  void begin_barrier(std::uint64_t seq);
  void await_barrier();
  void release_barrier();
  void drain_to_sequence(std::uint64_t seq);

  /// Optional hook observing failed batches. Set before start().
  void set_on_failure(FailureFn fn) { on_failure_ = std::move(fn); }

  /// True while the failure circuit is tripped (fault-isolation parity with
  /// Scheduler: circuit_failure_threshold consecutive executor throws trip
  /// it; circuit_recovery_threshold consecutive successes half-open and
  /// clear it). While degraded the graph-owner thread dispatches at most
  /// one batch at a time; batches already sitting in the ready queue at
  /// trip time still drain first (the dispatch gate counts them as
  /// in-flight, so no NEW work is released until they finish).
  bool degraded() const noexcept { return breaker_.degraded(); }

  /// Unified metrics snapshot — same names and schema as Scheduler::stats()
  /// (`scheduler.*`, `graph.*`, `worker.N.*`, `scheduler.queue_wait_ns`).
  obs::Snapshot stats() const;

  /// The registry this scheduler publishes into (shared with the creator
  /// when SchedulerOptions::metrics was set).
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const noexcept {
    return metrics_;
  }

  /// Batch lifecycle records; meaningful after wait_idle().
  const obs::BatchTracer& tracer() const noexcept { return tracer_; }

 private:
  // Events consumed by the scheduler thread. Completion carries the node
  // pointer back for removal. Delivery carries the probe metadata already
  // computed on the delivery thread (prepare() is const and lock-free), so
  // the graph-owning thread pays only for the index lookup.
  struct Delivery {
    DependencyGraph::Prepared probe;
  };
  struct Completion {
    DependencyGraph::Node* node;
    bool failed;  // executor threw — feeds the circuit breaker
  };
  // Barrier control flows through the same queue as everything else, so it
  // is ordered against deliveries without any extra locking on the graph.
  struct BarrierArm {
    std::uint64_t seq;
  };
  struct BarrierRelease {};
  using Event = std::variant<Delivery, Completion, BarrierArm, BarrierRelease>;

  void scheduler_loop();
  void worker_loop(unsigned worker_index);

  SchedulerOptions config_;
  Executor executor_;
  FailureFn on_failure_;

  // Registry handles resolved once at construction; hot paths touch only
  // the cached pointers.
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  SchedulerMetrics m_;
  obs::BatchTracer tracer_;
  // Watermark/hysteresis updates run under idle_mu_ when a bound is set
  // (delivery admits, scheduler-thread completions); with no bound only the
  // depth gauge is touched, which is atomic.
  BackpressureMeter bp_;

  util::BlockingQueue<Event> events_;
  util::BlockingQueue<DependencyGraph::Node*> ready_;

  // Owned exclusively by the scheduler thread after start().
  DependencyGraph graph_;
  std::uint64_t next_seq_check_ = 0;

  // Circuit breaker, serialized by the scheduler thread (completions and
  // dispatch decisions all flow through it). inflight_ counts nodes pushed
  // to ready_ whose Completion has not come back — the degraded-mode
  // dispatch gate.
  CircuitBreaker breaker_;
  std::size_t inflight_ = 0;

  // Barrier state owned by the scheduler thread...
  bool barrier_armed_ = false;
  std::uint64_t barrier_seq_ = 0;
  // ...and the caller-facing rendezvous: quiesced_ flips under barrier_mu_
  // when the scheduler thread observes the prefix drained.
  std::atomic<bool> barrier_public_{false};  // a barrier is armed (caller side)
  mutable std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  bool barrier_quiesced_ = false;

  std::atomic<std::uint64_t> outstanding_{0};  // delivered - removed
  std::atomic<bool> stopping_{false};

  mutable std::mutex stats_mu_;  // guards graph_ stats reads vs scheduler thread
  mutable std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  // Graph accumulators already published by stats(). Guarded by stats_mu_.
  mutable GraphStatsCursor published_;

  std::thread scheduler_thread_;
  std::vector<std::thread> workers_;
  bool started_ = false;
};

}  // namespace psmr::core
