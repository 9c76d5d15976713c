// Support parts shared by every scheduler variant (Scheduler,
// PipelinedScheduler, EarlyScheduler): the registry
// handles of the exactly-once totals, the graph-stat delta publisher, the
// guarded executor call, the consecutive-failure circuit breaker, and the
// cross-participant rendezvous gate. Each exists once, here; the variants
// differ only in how they serialize access to them (stated per part).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "smr/batch.hpp"

namespace psmr::core {

class DependencyGraph;

/// Registry handles every variant publishes its totals through
/// (DESIGN.md §10). Resolved once at construction; the hot path only
/// touches the cached references.
struct SchedulerMetrics {
  /// `workers` > 0 also registers `scheduler.queue_wait_ns` and one
  /// `<worker_prefix>N.batches_executed` counter per worker of the pool.
  explicit SchedulerMetrics(obs::MetricsRegistry& registry, unsigned workers = 0,
                            std::string_view worker_prefix = "worker.");

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
  obs::HistogramMetric* queue_wait_ns = nullptr;  // null without a pool
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
/// A throwing executor must never kill a worker or wedge a graph: every
/// variant accounts the batch as failed and carries on.
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
/// owner (Scheduler: its monitor; PipelinedScheduler: the graph-owner
/// thread; EarlyScheduler: its circuit mutex). degraded() is an atomic
/// load, safe from any thread.
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

/// Rendezvous state for one batch handed to several participants (the
/// class workers and the fallback engine of the EarlyScheduler), keyed by
/// its delivery sequence. The lowest participant
/// leads: it runs the batch once every participant has arrived.
struct RendezvousGate {
  RendezvousGate(unsigned expected_participants, std::size_t leader_id)
      : expected(expected_participants), leader(leader_id) {}

  /// Partial acceptance: some participants never received the batch, so
  /// the gate resolves over the ones that did. Safe at any time before the
  /// gate resolves.
  void shrink(unsigned expected_participants, std::size_t leader_id) {
    {
      std::lock_guard lk(mu);
      expected = expected_participants;
      leader = leader_id;
    }
    cv.notify_all();
  }

  std::mutex mu;
  std::condition_variable cv;
  unsigned expected;
  std::size_t leader;
  unsigned arrived = 0;
  unsigned departed = 0;
  bool done = false;  // leader finished (successfully or not)
};

/// Arrive at `gate` as `participant` and wait. The leader runs `lead()`
/// once every participant has arrived — with no gate lock held — and the
/// rest return only after it finished. The last participant out calls
/// `retire()` (exactly once per gate). If `lead()` throws, the leader
/// alone rethrows, after departing, so the failure surfaces in exactly one
/// participant.
template <typename Lead, typename Retire>
void rendezvous(RendezvousGate& gate, std::size_t participant, Lead&& lead,
                Retire&& retire) {
  std::unique_lock lk(gate.mu);
  if (++gate.arrived == gate.expected) gate.cv.notify_all();
  gate.cv.wait(lk, [&] {
    return gate.done || (participant == gate.leader && gate.arrived >= gate.expected);
  });
  std::exception_ptr err;
  if (!gate.done) {
    lk.unlock();
    try {
      lead();
    } catch (...) {
      err = std::current_exception();
    }
    lk.lock();
    gate.done = true;
    gate.cv.notify_all();
  }
  const bool last = ++gate.departed == gate.expected;
  lk.unlock();
  if (last) retire();
  if (err != nullptr) std::rethrow_exception(err);
}

/// The registered gates of one scheduler, keyed by delivery sequence.
class GateTable {
 public:
  /// Registers the gate for `seq`. Call before handing the batch to any
  /// participant: a worker may reach the gate the instant it holds a leg.
  std::shared_ptr<RendezvousGate> open(std::uint64_t seq, unsigned expected,
                                       std::size_t leader);
  /// The gate for `seq`, or null when the batch runs ungated.
  std::shared_ptr<RendezvousGate> find(std::uint64_t seq) const;
  void close(std::uint64_t seq);

  /// rendezvous() on the gate of `seq`, retiring it from this table.
  template <typename Lead>
  void rendezvous(RendezvousGate& gate, std::uint64_t seq, std::size_t participant,
                  Lead&& lead) {
    core::rendezvous(gate, participant, std::forward<Lead>(lead), [&] { close(seq); });
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<RendezvousGate>> gates_;
};

}  // namespace psmr::core
