// Early scheduler: conflict-class → worker mapping that bypasses the
// dependency graph (DESIGN.md §13; Early Scheduling in PSMR, arXiv
// 1805.05152, and Batch-Schedule-Execute, arXiv 2402.05535).
//
// The graph-based Scheduler pays an insert + conflict probe on every batch,
// even when the workload's conflicts are statically known. Here the
// scheduling decision is made at CONFIGURATION time instead: a
// smr::ConflictClassMap declares which commands can conflict (as classes),
// and each class is bound to one worker by the pure function
// ConflictClassMap::worker_of_class, fixed when the replica is configured.
// Delivery of the common case — a batch whose commands all fall in classes
// owned by one worker — is then a single queue push: no graph, no probe, no
// shared monitor.
//
// Three delivery paths, chosen per batch from its touched-class mask
// (stamped before delivery through Batch::stamp, or computed on the spot):
//
//   1. FAST PATH — all classes owned by one worker: push onto that
//      worker's queue. Each queue is filled only by the (single) delivery
//      thread and drained only by its worker, in FIFO order.
//   2. MULTI-CLASS — classes owned by several workers: every touched
//      worker receives the batch plus a rendezvous gate keyed by the
//      delivery sequence (a RendezvousGate, core/engine_parts.hpp); the
//      lowest touched participant runs the executor exactly once.
//   3. FALLBACK — the batch touches an unclassified key: it is inserted
//      into an embedded graph Scheduler, recovering the paper's general
//      mechanism. A batch that ALSO touches classified classes rendezvouses
//      between the graph engine and the touched class workers.
//
// Determinism (DESIGN.md §13): a command's class is fixed at configuration
// time, so two conflicting commands either share a class — and their
// batches are serialized by that class's owner executing its FIFO in
// delivery order — or (key-based maps) share an unclassified key and are
// serialized by the embedded graph in delivery order. The rendezvous only
// ADDS synchronization. Deadlock-freedom follows by strong induction on the
// delivery sequence: the oldest unfinished batch is at the head of every
// queue that holds it (queues are filled in delivery order) and oldest-free
// in the graph, so every participant it needs reaches its gate.
//
// The full scheduler contract is supported — circuit breaker + degraded
// mode, quiesce-at-sequence barriers for CheckpointManager, obs metrics
// (`early.*`: fast-path fraction, fallback inserts, per-worker queue depth
// histograms) and BatchTracer lifecycle events — and the checkpoint-
// lockstep suite runs it. smr::Replica does not: it owns a core::Scheduler
// by value, so running this variant inside a replica needs a scheduler
// contract Replica can take (ROADMAP, "One scheduler contract").
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/backpressure.hpp"
#include "core/engine_parts.hpp"
#include "core/scheduler.hpp"
#include "core/scheduler_options.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "smr/batch.hpp"
#include "smr/conflict_class.hpp"
#include "util/mpmc_queue.hpp"

namespace psmr::core {

class EarlyScheduler {
 public:
  using Executor = Scheduler::Executor;
  using FailureFn = Scheduler::FailureFn;

  /// `options.workers` = class-worker pool size; classes are bound to
  /// workers by ConflictClassMap::worker_of_class(cls, workers).
  /// `options.class_map` declares the classes (null = uniform hash
  /// partition with one class per worker — never unclassified).
  /// The embedded graph engine gets a pool of the same size; its conflict
  /// mode/index knobs come from the same options. Circuit thresholds apply
  /// to the class workers and, independently, inside the fallback engine.
  EarlyScheduler(SchedulerOptions options, Executor executor);
  ~EarlyScheduler();

  EarlyScheduler(const EarlyScheduler&) = delete;
  EarlyScheduler& operator=(const EarlyScheduler&) = delete;

  void start();

  /// Hands over the next batch in atomic-broadcast order. MUST be called
  /// from one delivery thread in sequence order — per-worker FIFOs are
  /// delivery-order subsequences, which is the determinism argument.
  /// Blocks while a touched worker's queue (or the fallback graph) is full.
  /// Returns false only once stop() has begun and refused a leg; the
  /// participants that already hold one still run the batch, so no gate is
  /// left waiting.
  bool deliver(smr::BatchPtr batch);

  /// Blocks until every delivered batch has executed everywhere.
  void wait_idle();

  /// Drains outstanding work, then joins class workers and the fallback
  /// engine. Idempotent.
  void stop();

  /// Checkpoint barrier (DESIGN.md §12/§13). Arms every class worker and
  /// the fallback engine at `seq` first, then waits. Call from the
  /// delivery thread, so no batch newer than `seq` can reach a participant
  /// that is not yet armed.
  void begin_barrier(std::uint64_t seq);
  void await_barrier();
  void release_barrier();
  void drain_to_sequence(std::uint64_t seq);

  /// Fires exactly once per failed batch (from the worker — or gate
  /// leader — that ran it). Set before start().
  void set_on_failure(FailureFn fn);

  /// True while the class-worker circuit or the fallback engine's circuit
  /// is tripped.
  bool degraded() const;

  unsigned num_class_workers() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// The class worker that owns `cls` (= worker_of_class(cls, workers)).
  std::size_t worker_of_class(std::uint32_t cls) const noexcept {
    return smr::ConflictClassMap::worker_of_class(cls, num_class_workers());
  }

  const smr::ConflictClassMap& class_map() const noexcept { return *map_; }

  /// Top-level `early.*` + `scheduler.*` metrics, per-worker queue-depth
  /// histograms, and the fallback engine's snapshot under `fallback.`.
  obs::Snapshot stats() const;

  const std::shared_ptr<obs::MetricsRegistry>& metrics() const noexcept {
    return metrics_;
  }

  const obs::BatchTracer& tracer() const noexcept { return tracer_; }

  /// Structural invariants of the embedded fallback graph (test hook).
  void check_invariants() const;

 private:
  /// One queued unit of work for a class worker.
  struct Item {
    smr::BatchPtr batch;
    // Participants are class workers 0..W-1 plus the fallback engine
    // (participant id W). null = fast path (run directly).
    std::shared_ptr<RendezvousGate> gate;
    std::uint64_t pushed_ns = 0;
  };

  struct Worker {
    explicit Worker(std::size_t queue_capacity) : queue(queue_capacity) {}
    util::MpmcQueue<Item> queue;  // producer: delivery thread only (FIFO)
    std::mutex mu;
    std::condition_variable cv;          // worker sleeps here when empty
    std::atomic<bool> sleeping{false};
    std::atomic<std::uint64_t> pending{0};     // pushed - completed
    std::atomic<std::uint64_t> parked_seq{0};  // head seq while barrier-parked
    obs::HistogramMetric* depth_metric = nullptr;
    std::thread thread;
  };

  void worker_loop(std::size_t w);
  void process_item(std::size_t w, Item& item);
  /// Executes `batch` once as `participant` (its owner, or the gate
  /// leader) and accounts it. A class worker isolates a failure itself
  /// (breaker, on_failure); the fallback participant rethrows it so the
  /// embedded engine does.
  void run_batch(std::size_t participant, const smr::Batch& batch);
  /// Pushes `item` onto worker `w`'s FIFO, first waiting (with `lifecycle`
  /// released) while that FIFO is full. Returns false, pushing nothing,
  /// once stop() has begun during the wait. Delivery thread only.
  bool push_item(std::unique_lock<std::mutex>& lifecycle, std::size_t w, Item item);
  /// Publishes the deepest class-worker queue into the meter.
  void publish_depth();
  void complete_one();
  /// Participant set (bits over workers, bit W = fallback) for a class mask.
  std::uint64_t participants_of(std::uint64_t class_mask) const noexcept;

  SchedulerOptions config_;
  Executor executor_;
  FailureFn on_failure_;
  // Fixed for the scheduler's lifetime (DESIGN.md §13.1).
  const std::shared_ptr<const smr::ConflictClassMap> map_;
  const std::uint64_t map_fingerprint_;

  std::shared_ptr<obs::MetricsRegistry> metrics_;
  SchedulerMetrics m_;  // per-worker counters are early.worker.N.*
  obs::Counter* fast_path_metric_;
  obs::Counter* multi_class_metric_;
  obs::Counter* fallback_metric_;
  obs::BatchTracer tracer_;
  // Updated only from the delivery thread; depth is the deepest
  // class-worker queue, the binding resource of this variant.
  BackpressureMeter bp_;
  std::size_t queue_capacity_ = 0;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<Scheduler> fallback_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::atomic<std::uint64_t> outstanding_{0};  // class-worker items in flight

  /// Serializes class-worker pushes against stop(): `stopping_` cannot flip
  /// between deliver()'s check and its push, so every pushed item reaches a
  /// live worker. deliver() releases it while it waits for queue room.
  std::mutex lifecycle_mu_;

  // wait_idle() parking.
  mutable std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  // Quiesce barrier over the class workers (the fallback engine has its
  // own). Armed/seq are atomics so workers can check without the lock;
  // parking and await notifications go through barrier_mu_.
  std::atomic<bool> barrier_armed_{false};
  std::atomic<std::uint64_t> barrier_seq_{0};
  mutable std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;  // await_barrier() waits here
  std::condition_variable release_cv_;  // parked workers wait here

  // Circuit breaker over the class workers (fast + gate paths), serialized
  // by circuit_mu_. The fallback engine trips its own breaker for
  // graph-run batches.
  std::mutex circuit_mu_;
  CircuitBreaker breaker_;
  std::mutex serial_mu_;  // degraded mode: one batch in flight at a time

  GateTable gates_;
};

}  // namespace psmr::core
