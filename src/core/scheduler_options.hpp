// One construction surface for every scheduler variant: Scheduler,
// PipelinedScheduler, ShardedScheduler and EarlyScheduler all take this
// options struct.
#pragma once

#include <chrono>
#include <cstddef>
#include <memory>

#include "core/conflict.hpp"
#include "smr/conflict_class.hpp"
#include "util/assert.hpp"

namespace psmr::obs {
class MetricsRegistry;
}  // namespace psmr::obs

namespace psmr::core {

/// What deliver() does when the delivery queue is at max_pending_batches
/// (DESIGN.md §14). Replicated deployments must use a blocking mode: a
/// batch rejected AFTER atomic broadcast has already been ordered, so
/// dropping it would diverge replicas — load shedding belongs BEFORE the
/// order (smr::AdmissionController). The rejecting modes exist for callers
/// that own the order (benches, local pipelines) or re-offer the same batch
/// later in sequence.
enum class BackpressureMode : std::uint8_t {
  /// Block until the queue drains below the bound (the pre-PR-8 behaviour).
  kBlock = 0,
  /// Block up to `backpressure_deadline`, then reject (deliver() returns
  /// false, `backpressure.deadline_expired` counts it).
  kBlockWithDeadline = 1,
  /// Reject immediately while full (`backpressure.rejects` counts it).
  kReject = 2,
};

struct SchedulerOptions {
  /// Number of worker threads N. For the ShardedScheduler this is the pool
  /// size PER SHARD (total execution threads = shards * workers).
  unsigned workers = 1;

  /// Key-space partitions of the ShardedScheduler (DESIGN.md §11): each
  /// shard owns an independent dependency graph, monitor, and worker pool.
  /// Capped at 64 so a batch's touched-shard set fits one mask word. The
  /// single-graph Scheduler and PipelinedScheduler ignore it.
  unsigned shards = 1;

  /// Conflict detection mechanism (the paper's `useBitmap` switch,
  /// generalized).
  ConflictMode mode = ConflictMode::kKeysNested;

  /// How insert finds the resident batches to test against (orthogonal to
  /// `mode`; never changes the resulting graph — see IndexMode).
  IndexMode index = IndexMode::kAuto;

  /// Backpressure: deliver() blocks while the graph holds this many batches
  /// (0 = unbounded). Keeps an over-driven scheduler from accumulating
  /// unbounded memory; the paper's closed-loop clients bound this naturally.
  std::size_t max_pending_batches = 0;

  /// What deliver() does when `max_pending_batches` is reached (ignored when
  /// the bound is 0). kBlock preserves the historical blocking behaviour and
  /// is the only mode safe for replicated use (see the enum comment).
  BackpressureMode backpressure = BackpressureMode::kBlock;

  /// kBlockWithDeadline only: how long deliver() waits for space before
  /// giving up and returning false.
  std::chrono::milliseconds backpressure_deadline{100};

  /// Watermark instrumentation of the delivery queue, as fractions of
  /// `max_pending_batches`. The `backpressure.above_high` gauge flips to 1
  /// when resident depth reaches high_watermark * bound and back to 0 once
  /// it drains to low_watermark * bound (hysteresis, so a queue oscillating
  /// near the threshold doesn't thrash the gauge);
  /// `backpressure.high_watermark_crossings` counts the 0→1 edges.
  double high_watermark = 0.875;
  double low_watermark = 0.5;

  /// Worker fault isolation circuit breaker: after this many CONSECUTIVE
  /// failed batches (executor threw), the scheduler degrades to sequential
  /// single-batch execution — one batch in flight at a time, delivery order
  /// — instead of crashing or wedging. 0 disables the circuit (failures are
  /// still isolated and counted). Honoured by every variant (the
  /// ShardedScheduler through its per-shard engines; the EarlyScheduler by
  /// its class workers and, independently, its fallback engine).
  unsigned circuit_failure_threshold = 0;

  /// Half-open recovery for the circuit breaker: while degraded, this many
  /// CONSECUTIVE successful batches close the circuit and restore
  /// concurrent execution (a probation window — any failure during it
  /// resets the success count, and accumulating failures re-trip the
  /// circuit as usual). 0 keeps the pre-recovery behaviour: once tripped,
  /// the scheduler stays sequential until restart.
  unsigned circuit_recovery_threshold = 0;

  /// Conflict-class declarations for the EarlyScheduler (DESIGN.md §13).
  /// null = the EarlyScheduler builds a uniform hash partition with one
  /// class per worker. Ignored by the other variants. All replicas must
  /// configure the identical map (like the bitmap hash config).
  std::shared_ptr<const smr::ConflictClassMap> class_map;

  /// Worker pool size of the EarlyScheduler's embedded graph engine, which
  /// runs unclassified batches (the fallback path). 0 = same as `workers`.
  /// Ignored by the other variants.
  unsigned fallback_workers = 0;

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
    PSMR_CHECK(shards >= 1 && shards <= 64);
    PSMR_CHECK(static_cast<unsigned>(mode) <= static_cast<unsigned>(ConflictMode::kBitmapSparse));
    PSMR_CHECK(static_cast<unsigned>(index) <= static_cast<unsigned>(IndexMode::kAuto));
    PSMR_CHECK(static_cast<unsigned>(backpressure) <=
               static_cast<unsigned>(BackpressureMode::kReject));
    PSMR_CHECK(backpressure_deadline.count() >= 0);
    PSMR_CHECK(high_watermark > 0.0 && high_watermark <= 1.0);
    PSMR_CHECK(low_watermark >= 0.0 && low_watermark <= high_watermark);
  }
};

}  // namespace psmr::core
