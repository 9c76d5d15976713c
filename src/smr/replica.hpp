// Parallel SMR replica: delivery -> scheduler -> workers -> service ->
// responses (Figure 1(b) of the paper).
//
// The replica owns a core::Scheduler; its deliver() is plugged into a total
// order source (ConsensusAdapter::subscribe_replica). Worker threads execute
// the commands of each batch in order against the Service and push each
// response to the response sink, which routes it back to the originating
// client proxy.
//
// Reliability envelope (see DESIGN.md "Failure model"):
//   * Exactly-once execution — tracked commands (sequence != 0) pass
//     through a per-client SessionTable; retransmitted or network-
//     duplicated deliveries re-send the cached response instead of
//     re-executing.
//   * Worker fault isolation — a Service that throws marks the rest of the
//     batch failed (error responses are emitted, recorded in the session
//     table) and the failure is surfaced to the scheduler, which keeps the
//     worker alive, unblocks dependents, and accounts the batch as failed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/scheduler.hpp"
#include "obs/metrics.hpp"
#include "smr/batch.hpp"
#include "smr/checkpoint.hpp"
#include "smr/command.hpp"
#include "smr/session.hpp"

namespace psmr::smr {

class Replica {
 public:
  /// Receives every response produced by this replica. Invoked concurrently
  /// from worker threads (for independent batches).
  using ResponseSink = std::function<void(const Response&)>;

  struct Config {
    /// Scheduler construction options. If `scheduler.metrics` is null the
    /// replica creates a registry shared between itself and the scheduler,
    /// so one snapshot carries both `replica.*` and `scheduler.*` metrics.
    core::SchedulerOptions scheduler;
    /// Replica identifier (diagnostics; responses are routed by proxy id).
    std::uint32_t replica_id = 0;
    /// Exactly-once dedup via the session table. Commands with
    /// sequence == 0 always bypass the table.
    bool exactly_once = true;
    /// Deterministic checkpointing (DESIGN.md §12): checkpoint every N
    /// delivered sequences through the scheduler's quiesce barrier. 0
    /// disables the subsystem. Requires checkpoint_state.
    std::uint64_t checkpoint_interval = 0;
    /// Serializes the service state under the barrier (e.g.
    /// `[&store] { return store.serialize(); }`). Required when
    /// checkpoint_interval > 0 or install_checkpoint is used.
    CheckpointManager::StateFn checkpoint_state;
    /// Installs a checkpoint's service-state section (e.g.
    /// `[&store](const auto& b) { return store.deserialize(b); }`) — the
    /// automated-rejoin path.
    std::function<bool(const std::vector<std::uint8_t>&)> checkpoint_install;
  };

  Replica(Config config, Service& service, ResponseSink sink);

  void start() { scheduler_.start(); }
  void stop() { scheduler_.stop(); }
  void wait_idle() { scheduler_.wait_idle(); }

  /// Delivery callback — must be called in total order (one caller at a
  /// time, increasing sequences). Fully-duplicate batches (every tracked
  /// command already executed) are answered straight from the session cache
  /// without entering the dependency graph. A batch the scheduler cannot
  /// test for conflicts — no digest under ConflictMode::kBitmap — is
  /// rejected: each of its commands is answered with Status::kFailed and
  /// nothing executes (`replica.batches_rejected`).
  bool deliver(BatchPtr batch);

  /// Unified snapshot covering the scheduler (`scheduler.*`, `graph.*`,
  /// `worker.N.*`) AND the replica's own metrics (`replica.*`) — they share
  /// one registry.
  obs::Snapshot stats() const { return scheduler_.stats(); }
  std::uint32_t id() const noexcept { return config_.replica_id; }

  /// The exactly-once session table. Part of the replicated state: capture
  /// it with serialize() alongside the service snapshot and restore it
  /// before replaying the log suffix.
  SessionTable& sessions() noexcept { return sessions_; }
  const SessionTable& sessions() const noexcept { return sessions_; }

  /// Duplicate batches short-circuited at delivery (never scheduled).
  /// Also exported as the `replica.batches_deduped` counter.
  std::uint64_t batches_deduped_at_delivery() const noexcept {
    return batches_deduped_->value();
  }

  /// Batches this replica has taken from the total order and finished
  /// with at delivery: handed to the scheduler
  /// (`scheduler.batches_delivered`), answered from the session cache
  /// (`replica.batches_deduped`) or rejected (`replica.batches_rejected`).
  /// Replicas fed the same order agree on it once delivery has caught up.
  std::uint64_t batches_consumed() const noexcept {
    return batches_delivered_->value() + batches_deduped_->value() +
           batches_rejected_->value();
  }

  /// The checkpoint subsystem; null unless Config::checkpoint_interval > 0.
  /// Deployment wiring (log horizon stamping, on-checkpoint publication)
  /// attaches here.
  CheckpointManager* checkpoints() noexcept { return checkpoints_.get(); }

  /// Installs a fetched checkpoint — service state via
  /// Config::checkpoint_install, then the session table (exactly-once dedup
  /// windows MUST be restored before replaying the log suffix). Call before
  /// start()/any delivery. Returns false on a rejected section; the replica
  /// must then be discarded, not started.
  bool install_checkpoint(const CheckpointRecord& record);

 private:
  void execute_batch(const Batch& batch);

  Config config_;
  Service& service_;
  ResponseSink sink_;
  SessionTable sessions_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;  // shared with scheduler_
  obs::Counter* batches_delivered_;  // the scheduler's, resolved here once
  obs::Counter* batches_deduped_;
  obs::Counter* responses_from_cache_;
  obs::Counter* batches_rejected_;
  core::Scheduler scheduler_;
  std::unique_ptr<CheckpointManager> checkpoints_;
};

}  // namespace psmr::smr
