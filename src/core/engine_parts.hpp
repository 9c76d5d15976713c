// Support parts of the threaded Scheduler: the registry handles of the
// exactly-once totals, the graph-stat delta publisher, the guarded executor
// call and the consecutive-failure circuit breaker.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "smr/batch.hpp"

namespace psmr::core {

class DependencyGraph;

/// Registry handles the scheduler publishes its totals through
/// (DESIGN.md §10). Resolved once at construction; the hot path only
/// touches the cached references.
struct SchedulerMetrics {
  /// Also registers `scheduler.queue_wait_ns` and one
  /// `worker.N.batches_executed` counter per worker of the pool.
  SchedulerMetrics(obs::MetricsRegistry& registry, unsigned workers);

  /// One successful batch: `scheduler.batches_executed` +1 and
  /// `scheduler.commands_executed` += its size.
  void count_executed(const smr::Batch& batch) {
    batches_executed.add(1);
    commands_executed.add(batch.size());
  }

  obs::Counter& batches_delivered;
  obs::Counter& batches_executed;
  obs::Counter& commands_executed;
  obs::Counter& batches_failed;
  obs::HistogramMetric& queue_wait_ns;
  std::vector<obs::Counter*> worker_batches;
};

/// Last values of a DependencyGraph's serialized accumulators already
/// pushed into registry counters (publish_graph_stats adds the delta).
struct GraphStatsCursor {
  std::uint64_t pair_tests = 0;
  std::uint64_t comparisons = 0;
  std::uint64_t conflicts_found = 0;
  std::uint64_t index_probes = 0;
  std::uint64_t index_fast_path_skips = 0;
  std::uint64_t index_candidate_tests = 0;
  std::uint64_t index_activations = 0;
  std::uint64_t index_deactivations = 0;
  std::uint64_t trace_started = 0;
  std::uint64_t trace_evicted = 0;
};

/// Publishes the graph's conflict/index accumulators and the tracer's
/// totals as counter deltas (so exported counters stay monotonic across
/// snapshots), and sets the `graph.*` / `trace.capacity` gauges. The
/// caller holds whatever serializes `graph` and `cursor`.
void publish_graph_stats(const DependencyGraph& graph, const obs::BatchTracer& tracer,
                         obs::MetricsRegistry& registry, GraphStatsCursor& cursor);

/// Runs `executor(batch)` and returns what it threw (null on success).
/// A throwing executor must never kill a worker or wedge a graph: the
/// scheduler accounts the batch as failed and carries on.
template <typename Executor>
inline std::exception_ptr guarded_execute(const Executor& executor,
                                          const smr::Batch& batch) noexcept {
  try {
    executor(batch);
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

/// The text FailureFn receives for `error`: what() of a std::exception,
/// "non-standard exception" for anything else.
std::string failure_message(const std::exception_ptr& error);

/// Consecutive-failure circuit breaker (DESIGN.md §7, §11.5, §13.4).
/// `failure_threshold` consecutive failed batches trip it (0 = never);
/// while tripped, `recovery_threshold` consecutive successes close it again
/// (0 = stay tripped). Owns `scheduler.circuit.trips`,
/// `scheduler.circuit.recoveries` and the `scheduler.degraded` gauge.
///
/// Takes no lock: on_success()/on_failure() must be serialized by the
/// owner (the Scheduler's monitor). degraded() is an atomic load, safe from
/// any thread.
class CircuitBreaker {
 public:
  CircuitBreaker(obs::MetricsRegistry& registry, unsigned failure_threshold,
                 unsigned recovery_threshold)
      : failure_threshold_(failure_threshold),
        recovery_threshold_(recovery_threshold),
        trips_(registry.counter("scheduler.circuit.trips")),
        recoveries_(registry.counter("scheduler.circuit.recoveries")),
        degraded_gauge_(registry.gauge("scheduler.degraded")) {
    degraded_gauge_.set(0.0);
  }

  bool degraded() const noexcept { return degraded_.load(std::memory_order_acquire); }

  /// Records a successful batch; true when it closed the circuit (the
  /// owner then re-opens concurrent execution for every waiting worker).
  bool on_success() {
    failures_ = 0;
    // Degraded mode runs one batch at a time, so these successes are
    // genuinely consecutive.
    if (!degraded() || recovery_threshold_ == 0 || ++successes_ < recovery_threshold_) {
      return false;
    }
    successes_ = 0;
    degraded_.store(false, std::memory_order_release);
    recoveries_.add(1);
    degraded_gauge_.set(0.0);
    return true;
  }

  /// Records a failed batch; true when it tripped the circuit.
  bool on_failure() {
    successes_ = 0;  // a failure restarts the probation window
    if (failure_threshold_ == 0 || degraded() || ++failures_ < failure_threshold_) {
      return false;
    }
    degraded_.store(true, std::memory_order_release);
    trips_.add(1);
    degraded_gauge_.set(1.0);
    return true;
  }

 private:
  const unsigned failure_threshold_;
  const unsigned recovery_threshold_;
  unsigned failures_ = 0;
  unsigned successes_ = 0;
  std::atomic<bool> degraded_{false};
  obs::Counter& trips_;
  obs::Counter& recoveries_;
  obs::Gauge& degraded_gauge_;
};

}  // namespace psmr::core
