// Key-space-sharded scheduler (DESIGN.md §11) — the first step from "one
// fast scheduler" toward a multi-shard replica (ROADMAP; motivated by
// P-SMR's command-to-partition mapping and Early Scheduling's off-critical-
// path class assignment).
//
// The single Scheduler is a serialization point: every insert, take and
// remove crosses one monitor. Here the key space is partitioned into S
// shards by the deterministic hash smr::shard_of_key; each shard owns an
// INDEPENDENT dependency graph, monitor and worker pool (a private
// Scheduler engine). Batches whose keys all map to one shard — the common
// case under partition-friendly workloads — insert and execute with zero
// cross-shard synchronization. Batches touching several shards are handled
// by a deterministic barrier: deliver() (called in atomic-broadcast order)
// enqueues the batch into EVERY touched shard in delivery order, and at
// execution time the touched shards rendezvous on a gate keyed by the
// batch's delivery sequence number; the lowest touched shard (the leader)
// runs the executor exactly once, the rest wait for it and then release
// their local dependents.
//
// Determinism (the paper's requirement that all replicas produce identical
// state): every key belongs to exactly one shard, so any two conflicting
// batches share a shard and are serialized by that shard's graph in
// delivery order — the same order ≺B the single Scheduler enforces. The
// cross-shard gate only ADDS synchronization (a delivery-order barrier ⊇
// ≺B restricted to the touched shards); it never reorders conflicting
// work. Deadlock-freedom follows from take-oldest-free + strong induction
// on delivery sequence (argument spelled out in DESIGN.md §11).
//
// Observability: the top-level registry exports exactly-once totals
// (`scheduler.batches_executed`, `scheduler.batches_single_shard` /
// `batches_cross_shard`, `scheduler.cross_shard_fraction`), and stats()
// merges every engine's snapshot under a `shard.N.` prefix, so per-shard
// balance is visible in the one psmr.metrics.v1 export.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine_parts.hpp"
#include "core/scheduler.hpp"
#include "core/scheduler_options.hpp"
#include "obs/metrics.hpp"
#include "smr/batch.hpp"

namespace psmr::core {

class ShardedScheduler {
 public:
  using Executor = Scheduler::Executor;
  using FailureFn = Scheduler::FailureFn;

  /// `options.shards` = S (1..64); `options.workers` is the pool size PER
  /// shard. Circuit-breaker thresholds apply independently inside each
  /// shard engine. `options.metrics` (if set) receives the top-level
  /// exactly-once totals; each engine always publishes into a private
  /// registry (merged by stats()) so `worker.N.*` names cannot collide.
  ShardedScheduler(SchedulerOptions options, Executor executor);
  ~ShardedScheduler();

  ShardedScheduler(const ShardedScheduler&) = delete;
  ShardedScheduler& operator=(const ShardedScheduler&) = delete;

  void start();

  /// Hands over the next batch in atomic-broadcast order. MUST be called
  /// from one delivery thread, in sequence order — multi-shard batches are
  /// enqueued into every touched shard inside this call, which is what
  /// keeps per-shard insertion order consistent with delivery order.
  /// Blocks while a touched shard is full. Returns false only once stop()
  /// has begun and refused a leg; the shards that already hold one still
  /// run the batch, so no gate is left waiting.
  bool deliver(smr::BatchPtr batch);

  /// Blocks until every delivered batch has executed in every shard.
  void wait_idle();

  /// Drains outstanding work, then stops every shard engine. Idempotent.
  void stop();

  /// Checkpoint barrier across every shard (DESIGN.md §12). Arms a barrier
  /// at `seq` on EVERY shard engine first, then waits for each to drain its
  /// <= seq prefix. Must be called from the delivery thread (the same
  /// serialization deliver() already requires) so no batch newer than `seq`
  /// can slip into a not-yet-armed shard and park a worker in a rendezvous
  /// gate the barrier would never resolve. Cross-shard batches <= seq still
  /// rendezvous normally — every touched shard lets them through — so the
  /// drain is deadlock-free by the same delivery-order induction as §11.
  void drain_to_sequence(std::uint64_t seq);

  /// Releases every shard's barrier. Idempotent.
  void release_barrier();

  /// Applies a new conflict-class map at `seq` — same contract as
  /// Scheduler::apply_class_map (quiesce every shard, swap, release;
  /// delivery thread only). Sharding partitions by key, not class, so the
  /// map is observability here; the surface exists for variant parity.
  void apply_class_map(std::shared_ptr<const smr::ConflictClassMap> map,
                       std::uint64_t seq);
  /// Safe from any thread — published through an atomic, so observers may
  /// poll it while the delivery thread is mid-swap.
  std::uint64_t class_map_fingerprint() const noexcept {
    return class_map_fp_.load(std::memory_order_acquire);
  }

  /// Forwarded to every shard engine; a failed batch fires it exactly once
  /// (from the shard that ran — or led — it). Set before start().
  void set_on_failure(FailureFn fn);

  /// True if any shard's circuit breaker is currently tripped.
  bool degraded() const;

  unsigned num_shards() const noexcept { return static_cast<unsigned>(shards_.size()); }

  /// The shard that owns `key` (= smr::shard_of_key(key, S)).
  std::size_t shard_of(smr::Key key) const noexcept;

  /// Direct access to one shard engine (tests, tracing).
  const Scheduler& shard(std::size_t i) const { return *shards_[i]; }

  /// Top-level totals plus every engine's snapshot under `shard.N.`.
  /// Cross-shard counters: a batch counts once as single- or cross-shard;
  /// `scheduler.batches_executed` here is exactly-once per batch, while
  /// `shard.N.scheduler.batches_executed` counts barrier participation
  /// (a cross-shard batch appears in every touched shard's view).
  obs::Snapshot stats() const;

  const std::shared_ptr<obs::MetricsRegistry>& metrics() const noexcept {
    return metrics_;
  }

  /// Structural invariants of every shard graph (test hook).
  void check_invariants() const;

 private:
  void execute_as_shard(std::size_t shard_index, const smr::Batch& batch);
  /// Runs the executor once for `batch`, counting the exactly-once totals;
  /// rethrows a failure so the running engine isolates it.
  void run_counted(const smr::Batch& batch);

  SchedulerOptions config_;
  Executor executor_;
  FailureFn on_failure_;
  std::atomic<std::uint64_t> class_map_fp_{0};

  std::shared_ptr<obs::MetricsRegistry> metrics_;
  SchedulerMetrics m_;
  obs::Counter* single_shard_metric_;
  obs::Counter* cross_shard_metric_;

  std::vector<std::unique_ptr<Scheduler>> shards_;

  /// One gate per in-flight multi-shard batch, from deliver() until the
  /// last touched shard departs.
  GateTable gates_;
};

}  // namespace psmr::core
