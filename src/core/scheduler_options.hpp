// Construction options of the threaded Scheduler (and, through it, of
// Replica and CbaseScheduler).
#pragma once

#include <cstddef>
#include <memory>

#include "core/conflict.hpp"
#include "util/assert.hpp"

namespace psmr::obs {
class MetricsRegistry;
}  // namespace psmr::obs

namespace psmr::core {

struct SchedulerOptions {
  /// Number of worker threads N.
  unsigned workers = 1;

  /// Conflict detection mechanism (the paper's `useBitmap` switch). How the
  /// graph finds the batches to test is its own choice (IndexMode::kAuto,
  /// DESIGN.md §4.1); it never changes the resulting graph.
  ConflictMode mode = ConflictMode::kKeysNested;

  /// Backpressure: deliver() blocks while the graph holds this many batches
  /// (0 = unbounded). Keeps an over-driven scheduler from accumulating
  /// unbounded memory; the paper's closed-loop clients bound this naturally.
  /// Blocking is the only policy: a batch is refused only before the total
  /// order (smr::AdmissionController), never after it (DESIGN.md §14).
  std::size_t max_pending_batches = 0;

  /// Worker fault isolation circuit breaker: after this many CONSECUTIVE
  /// failed batches (executor threw), the scheduler degrades to sequential
  /// single-batch execution — one batch in flight at a time, delivery order
  /// — instead of crashing or wedging. 0 disables the circuit (failures are
  /// still isolated and counted).
  unsigned circuit_failure_threshold = 0;

  /// Half-open recovery for the circuit breaker: while degraded, this many
  /// CONSECUTIVE successful batches close the circuit and restore
  /// concurrent execution (a probation window — any failure during it
  /// resets the success count, and accumulating failures re-trip the
  /// circuit as usual). 0 keeps the pre-recovery behaviour: once tripped,
  /// the scheduler stays sequential until restart.
  unsigned circuit_recovery_threshold = 0;

  /// Ring capacity of the batch-lifecycle tracer (obs::BatchTracer),
  /// rounded up to a power of two. 0 disables tracing at runtime; building
  /// with -DPSMR_TRACE=OFF disables it at compile time regardless.
  std::size_t trace_capacity = 4096;

  /// Metrics registry the scheduler publishes into (`scheduler.*`,
  /// `graph.*`, `worker.N.*` — catalogue in DESIGN.md §10). null = the
  /// scheduler creates a private registry; pass a shared one to combine
  /// several components into a single snapshot (Replica does this).
  std::shared_ptr<obs::MetricsRegistry> metrics;

  /// Aborts on an invalid combination. Called by the scheduler
  /// constructors; callers building options programmatically can invoke it
  /// early for a better failure location.
  void validate() const {
    PSMR_CHECK(workers >= 1);
    PSMR_CHECK(mode == ConflictMode::kKeysNested || mode == ConflictMode::kBitmap);
  }
};

}  // namespace psmr::core
