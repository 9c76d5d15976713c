// The deterministic parallel scheduler (paper Algorithm 1).
//
// A single delivery thread calls deliver() in atomic-broadcast order; N
// worker threads loop { dgGetBatch; execute; dgRemoveBatch }. The
// dependency graph is protected by a monitor (mutex + condition variables),
// matching the paper's prototype. Configured with batch size 1 and key
// conflicts this IS CBASE; with batches and ConflictMode::kBitmap it is the
// paper's efficient scheduler.
//
// Observability (DESIGN.md §10): the scheduler publishes into an
// obs::MetricsRegistry (its own, or one shared via
// SchedulerOptions::metrics) and stamps batch lifecycles into an
// obs::BatchTracer. stats() returns the unified obs::Snapshot — the same
// type every other component exports — instead of a bespoke struct.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/backpressure.hpp"
#include "core/dependency_graph.hpp"
#include "core/engine_parts.hpp"
#include "core/scheduler_options.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "smr/batch.hpp"

namespace psmr::core {

class Scheduler {
 public:
  /// Invoked (outside the scheduler lock, on the worker thread) when an
  /// executor throws: receives the failed batch and the exception message.
  /// The batch was removed from the graph — dependents run regardless.
  using FailureFn = std::function<void(const smr::Batch&, const std::string&)>;

  /// `executor` runs all commands of a batch, in batch order, on the worker
  /// thread that took it. It must be safe to invoke concurrently for
  /// independent batches (the service provides that, e.g. via striped
  /// locks).
  using Executor = std::function<void(const smr::Batch&)>;

  Scheduler(SchedulerOptions options, Executor executor);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Launches the worker pool. Must be called exactly once.
  void start();

  /// Hands the scheduler the next batch in delivery order. While the graph
  /// holds max_pending_batches batches it blocks until a worker frees a
  /// slot. Returns false only once stop() has begun; the batch was then not
  /// inserted.
  bool deliver(smr::BatchPtr batch);

  /// Blocks until every delivered batch has been executed and removed.
  void wait_idle();

  /// Drains outstanding work, then joins the workers. Idempotent.
  void stop();

  /// Checkpoint barrier (DESIGN.md §12). Arms a quiesce barrier at `seq`:
  /// workers keep executing batches with delivery sequence <= seq but stop
  /// starting anything newer; deliver() keeps accepting throughout. At most
  /// one barrier may be armed at a time. Batches <= seq delivered AFTER
  /// arming are not covered — arm from the delivery thread (or with the
  /// prefix fully delivered) for a meaningful quiesce point.
  void begin_barrier(std::uint64_t seq);

  /// Blocks until every resident batch with sequence <= the armed barrier
  /// sequence has executed and left the graph. On return the visible state
  /// is exactly the delivered prefix <= seq — the deterministic snapshot
  /// point. Requires an armed barrier.
  void await_barrier();

  /// Disarms the barrier and releases the held-back batches. Idempotent.
  /// Must run before wait_idle()/stop(), which would otherwise wait forever
  /// on work the barrier is holding back.
  void release_barrier();

  /// begin_barrier(seq) + await_barrier() in one call.
  void drain_to_sequence(std::uint64_t seq);

  /// Optional hook observing failed batches (e.g. to emit error responses
  /// when the executor itself cannot). Set before start().
  void set_on_failure(FailureFn fn) { on_failure_ = std::move(fn); }

  /// True while the failure circuit is tripped. With
  /// circuit_recovery_threshold set, the circuit half-opens: enough
  /// consecutive successful batches clear it again (`scheduler.circuit.*`
  /// counters record every transition). Lock-free; safe from any thread.
  bool degraded() const noexcept { return breaker_.degraded(); }

  /// Unified metrics snapshot (DESIGN.md §10 catalogue): `scheduler.*`
  /// counters, `graph.*` gauges/counters, `worker.N.*` per-worker counters,
  /// the `scheduler.queue_wait_ns` histogram, and `trace.*` tracer meta.
  obs::Snapshot stats() const;

  /// The registry this scheduler publishes into (shared with the creator
  /// when SchedulerOptions::metrics was set).
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const noexcept {
    return metrics_;
  }

  /// Batch lifecycle records (delivered → … → removed). Meaningful after
  /// wait_idle(); empty when tracing is disabled or compiled out.
  const obs::BatchTracer& tracer() const noexcept { return tracer_; }

  /// Current number of batches in the graph (pending + taken).
  std::size_t graph_size() const;

  /// Test hook: runs the graph's structural invariant checks under the
  /// monitor.
  void check_invariants() const;

 private:
  void worker_loop(unsigned worker_index);

  /// A worker may take a batch unless the circuit tripped and another batch
  /// is already in flight (degraded mode = one batch at a time). Requires
  /// mu_ held.
  bool can_take_locked() const {
    return !breaker_.degraded() || graph_.num_taken() == 0;
  }

  /// Highest delivery sequence workers may start right now; unbounded when
  /// no barrier is armed. Requires mu_ held.
  std::uint64_t take_limit_locked() const {
    return barrier_armed_ ? barrier_seq_
                          : std::numeric_limits<std::uint64_t>::max();
  }

  SchedulerOptions config_;
  Executor executor_;
  FailureFn on_failure_;

  // Observability: registry handles are resolved once, in the constructor;
  // the hot path only touches the cached pointers (sharded relaxed adds).
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  SchedulerMetrics m_;
  obs::BatchTracer tracer_;
  // Depth/watermark updates run under mu_ (delivery inserts, worker
  // removes), satisfying the meter's serialization contract.
  BackpressureMeter bp_;
  // Serialized by mu_ (every on_success/on_failure runs under it).
  CircuitBreaker breaker_;

  mutable std::mutex mu_;
  std::condition_variable batch_ready_;  // workers wait here
  std::condition_variable space_free_;   // deliver() backpressure
  std::condition_variable idle_;         // wait_idle()
  std::condition_variable barrier_cv_;   // await_barrier()
  DependencyGraph graph_;
  bool stopping_ = false;
  bool started_ = false;
  bool barrier_armed_ = false;
  std::uint64_t barrier_seq_ = 0;
  // Guarded by mu_; mutable because stats() is const.
  mutable GraphStatsCursor published_;

  std::vector<std::thread> workers_;
};

}  // namespace psmr::core
