// Deterministic checkpointing (DESIGN.md §12).
//
// Parallel execution makes checkpointing subtle: workers run concurrently,
// so "snapshot the store now" captures a state that corresponds to no
// delivery prefix at all. The subsystem here restores the sequential
// story: a CheckpointManager rides the (single) delivery thread, and every
// `interval` delivered sequences it arms the scheduler's quiesce barrier —
// batches <= S finish, batches > S are held back, ingest keeps flowing —
// captures service state + session table at exactly prefix <= S, then
// releases the barrier. Every replica runs the same rule on the same total
// order, so every replica checkpoints at the SAME sequence with the SAME
// bytes (serializers emit sorted, canonical forms), which the lockstep
// property suite asserts byte for byte.
//
// The checkpoint record is a versioned, checksummed codec frame: service
// state (e.g. KvStore::serialize), the SessionTable snapshot (exactly-once
// dedup windows MUST survive a crash/restart, or a retransmission straddling
// the restart would re-execute), and the last-applied delivery sequence.
// A `log_horizon` stamp (first consensus instance NOT covered) makes the
// record self-describing for recovery: install the record, then resume
// delivery from `log_horizon` (consensus/group.hpp add_learner).
//
// CheckpointQuorum implements the truncation safety rule: the decided log
// below a horizon may be garbage-collected only once a QUORUM of replicas
// holds a checkpoint covering it — a minority of lost checkpoints can then
// never strand a recovering replica without a source for the prefix.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "smr/session.hpp"

namespace psmr::smr {

/// One deterministic checkpoint: the replicated state as of delivery prefix
/// <= sequence. `state` is the service's own serialized form (opaque here);
/// `sessions` is SessionTable::serialize(). Both are canonical (sorted), so
/// records taken at the same sequence are byte-identical across replicas.
struct CheckpointRecord {
  /// Last delivery sequence included in the captured state.
  std::uint64_t sequence = 0;
  /// First consensus instance NOT covered: resume delivery from here.
  std::uint64_t log_horizon = 1;
  std::vector<std::uint8_t> state;
  std::vector<std::uint8_t> sessions;
};

using CheckpointPtr = std::shared_ptr<const CheckpointRecord>;

/// Content checksum over every field (FNV-1a across a canonical layout) —
/// the integrity seal inside the encoded frame and the cross-replica
/// bit-identity witness used by the lockstep suite.
std::uint64_t checkpoint_checksum(const CheckpointRecord& record);

/// Versioned frame: magic, version, sequence, log_horizon, length-prefixed
/// state and session sections, trailing checksum.
std::vector<std::uint8_t> encode_checkpoint(const CheckpointRecord& record);

/// Decodes and VERIFIES an encoded record: wrong magic/version, truncated
/// or oversized frames, and checksum mismatches all yield nullopt — a
/// corrupt checkpoint must never install.
std::optional<CheckpointRecord> decode_checkpoint(std::span<const std::uint8_t> bytes);

class CheckpointManager {
 public:
  /// Scheduler quiesce hooks (core::Scheduler's drain_to_sequence /
  /// release_barrier pair). `drain(S)` blocks until the delivered prefix
  /// <= S has fully executed while newer batches are held back;
  /// `release()` resumes them.
  struct Barrier {
    std::function<void(std::uint64_t)> drain;
    std::function<void()> release;
  };

  struct Options {
    /// Checkpoint every N delivered sequences (on_delivered fires the
    /// trigger when seq % interval == 0). 0 = manual checkpoint_at() only.
    std::uint64_t interval = 0;
    /// Shared registry for the `checkpoint.*` metrics; a private one is
    /// created when null.
    std::shared_ptr<obs::MetricsRegistry> metrics;
  };

  /// Produces the service-state section (e.g. KvStore::serialize). Invoked
  /// only while the barrier holds, so it sees a quiesced store.
  using StateFn = std::function<std::vector<std::uint8_t>()>;

  /// Supplies the record's log_horizon: the first consensus instance not
  /// covered by the delivered prefix. Called under the barrier, from the
  /// delivery thread. Optional — defaults to sequence + 1, which is exact
  /// for the 1 batch : 1 instance mapping the simulated stack uses.
  using HorizonFn = std::function<std::uint64_t(std::uint64_t sequence)>;

  /// Observer invoked (outside the barrier) with each new checkpoint —
  /// state-transfer publication and truncation wiring hang off this.
  using CheckpointFn = std::function<void(const CheckpointPtr&)>;

  /// `sessions` may be null (stateless services); the section is then
  /// empty. The table/functions must outlive the manager.
  CheckpointManager(Options options, Barrier barrier, StateFn state,
                    const SessionTable* sessions);

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  void set_on_checkpoint(CheckpointFn fn);
  void set_horizon_fn(HorizonFn fn);

  /// Delivery-path hook: call AFTER handing sequence `seq` to the
  /// scheduler, from the delivery thread, in order. Triggers a checkpoint
  /// when the configured interval divides `seq`.
  void on_delivered(std::uint64_t seq);

  /// Takes a checkpoint at `seq` right now (delivery thread; every batch
  /// <= seq must already be delivered). Returns the new record.
  CheckpointPtr checkpoint_at(std::uint64_t seq);

  /// Most recent checkpoint; null before the first one.
  CheckpointPtr latest() const;

  std::uint64_t checkpoints_taken() const;

  /// Installs `record` as the latest without capturing (recovery path: a
  /// rejoining replica seeds its manager with the fetched checkpoint so
  /// interval accounting and latest() agree with the group).
  void adopt(CheckpointPtr record);

  /// `checkpoint.*` metrics: counters taken/bytes_total, gauges
  /// last_sequence/interval, histograms barrier_wait_ns/capture_ns.
  obs::Snapshot stats() const;
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const noexcept {
    return metrics_;
  }

 private:
  Options options_;
  Barrier barrier_;
  StateFn state_;
  const SessionTable* sessions_;
  HorizonFn horizon_;
  CheckpointFn on_checkpoint_;

  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter* taken_metric_;
  obs::Counter* bytes_metric_;
  obs::HistogramMetric* barrier_wait_metric_;
  obs::HistogramMetric* capture_metric_;

  mutable std::mutex mu_;  // guards latest_ (readers on any thread)
  CheckpointPtr latest_;
  std::uint64_t taken_ = 0;
};

/// Truncation safety tracker: replicas report the log horizon of their
/// latest durable checkpoint; stable() is the highest horizon covered by at
/// least `quorum` distinct replicas — the only prefix boundary the decided
/// log may be garbage-collected below (DESIGN.md §12).
class CheckpointQuorum {
 public:
  explicit CheckpointQuorum(std::size_t quorum);

  /// Records that `replica_id` holds a checkpoint covering every instance
  /// < `log_horizon`. Horizons per replica are monotonic (stale reports are
  /// ignored). Returns the new stable() value.
  std::uint64_t note(std::uint32_t replica_id, std::uint64_t log_horizon);

  /// Highest horizon h such that >= quorum replicas reported >= h; 0 while
  /// fewer than quorum replicas have reported at all.
  std::uint64_t stable() const;

 private:
  std::size_t quorum_;
  mutable std::mutex mu_;
  std::map<std::uint32_t, std::uint64_t> horizons_;
};

}  // namespace psmr::smr
