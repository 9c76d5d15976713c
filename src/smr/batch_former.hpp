// Affinity-aware batch formation (DESIGN.md §15; Batch-Schedule-Execute,
// arXiv 2402.05535).
//
// The paper's proxy packs batches obliviously: append until full. At low
// skew nearly every such batch spans several conflict classes, so the
// early scheduler's one-push fast path almost never fires —
// `multi_class_fraction` stays high exactly when the workload is most
// partitionable. Batch-Schedule-Execute's observation is that batch
// PACKING is itself a scheduling problem: group commands by their home
// conflict class at formation time and the downstream fast path fires on
// nearly every batch.
//
// BatchFormer is that packer. It maintains per-home open batches ("lanes"):
// each offered command routes to the lane of its conflict class; commands
// with no home — unclassified under the map, or (future) multi-key
// commands spanning classes — collect in one dedicated MIXED lane rather
// than contaminating every affinity lane they touch. Lanes flush as formed
// batches on three watermarks:
//
//   * SIZE  — a lane reaching batch_size flushes immediately (the common
//     case; equals the oblivious batch size, so downstream batch-size
//     assumptions hold).
//   * AGE   — a lane older than max_lane_age offered commands flushes, so
//     a cold home's commands are not parked indefinitely behind hot ones
//     (bounded formation latency, measured in offered commands — not wall
//     time — to stay deterministic).
//   * LANES — opening a lane beyond max_open_lanes first flushes the
//     oldest open lane (bounded former memory).
//
// Ordering semantics: the former permutes commands ACROSS batches but
// preserves each arrival order within a lane, and every formed batch still
// passes through the atomic broadcast total order. Commands are related by
// delivery order of their batches exactly as before; conflicting commands
// are serialized by the scheduler regardless of which batch carries them,
// so delivery-order semantics (and replica determinism) are unchanged — the
// former only changes WHICH batches exist, a cost decision, not an ordering
// input. Per-client response tracking is unaffected: (client_id, sequence)
// identity rides with the command wherever it is packed.
//
// The former also STAMPS every flushed batch under its class map in the
// same breath (Batch::stamp — one pass), so formation and stamping can
// never disagree on the map, and counts per-class load — the feed for the
// epoch Repartitioner (smr/repartition.hpp).
//
// kOblivious policy reproduces the legacy append-until-full loop exactly
// (one lane, size watermark only), so the Proxy has ONE formation path and
// benches compare policies on identical plumbing.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "smr/batch.hpp"
#include "smr/command.hpp"
#include "smr/conflict_class.hpp"

namespace psmr::smr {

enum class FormationPolicy : std::uint8_t {
  /// Append-until-full, FIFO — the paper's packing. One lane; a batch
  /// flushes when batch_size commands arrived, regardless of affinity.
  kOblivious = 0,
  /// Route each command to its conflict-class home lane; flush on
  /// size/age/lane-count watermarks. Mixed lane for homeless commands.
  kAffinity = 1,
};

const char* to_string(FormationPolicy p) noexcept;

class BatchFormer {
 public:
  struct Config {
    FormationPolicy policy = FormationPolicy::kOblivious;
    /// Size watermark: a lane flushes when it holds this many commands.
    std::size_t batch_size = 1;
    /// Lane-count watermark (kAffinity): opening a lane past this bound
    /// first flushes the oldest open lane. 0 = 64 (one per class cap).
    std::size_t max_open_lanes = 0;
    /// Age watermark (kAffinity): a lane flushes once `max_lane_age`
    /// commands have been offered since it opened. Deterministic (counts
    /// offers, not time). 0 = 4 * batch_size.
    std::size_t max_lane_age = 0;
    /// A command's home is its class under this map (null = every command
    /// is homeless → mixed lane degenerates to oblivious). Flushed batches
    /// are stamped under it.
    std::shared_ptr<const ConflictClassMap> class_map;
    /// Registry for `former.*` metrics. null = private registry.
    std::shared_ptr<obs::MetricsRegistry> metrics;
  };

  explicit BatchFormer(Config config);

  BatchFormer(const BatchFormer&) = delete;
  BatchFormer& operator=(const BatchFormer&) = delete;

  /// Offers one command; appends any batches flushed by the resulting
  /// watermark crossings to `out` (stamped, proxy-ready). Returns the
  /// number of batches appended. Thread-compatible (one proxy thread).
  std::size_t offer(Command cmd, std::vector<Batch>& out);

  /// Flushes every open lane, oldest first (end of a proxy round — the
  /// closed loop needs every drawn command broadcast before it waits).
  std::size_t drain(std::vector<Batch>& out);

  /// Swaps the class map (epoch repartition, DESIGN.md §15). Open
  /// lanes are NOT re-homed: they were routed under the old map and flush
  /// stamped under the new one — the scheduler's fingerprint check
  /// recomputes such stale stamps, a cost not a correctness event. Callers
  /// wanting clean epoch edges drain() first (the Proxy does).
  void set_placement(std::shared_ptr<const ConflictClassMap> class_map);

  const Config& config() const noexcept { return config_; }

  std::size_t open_lanes() const noexcept { return lanes_.size(); }
  /// Commands offered but not yet flushed.
  std::size_t buffered() const noexcept { return buffered_; }

  /// Per-class commands routed since construction, indexed by class id —
  /// the Repartitioner's load feed. Slot kMaxClasses counts homeless
  /// (mixed-lane / unclassified) commands.
  const std::vector<std::uint64_t>& class_loads() const noexcept {
    return class_loads_;
  }

  obs::Snapshot stats() const { return metrics_->snapshot(); }

 private:
  /// Lane key: the class id, or kMixedLane for homeless commands.
  static constexpr std::uint64_t kMixedLane = ~std::uint64_t{0};

  struct Lane {
    std::uint64_t key = 0;
    std::uint64_t opened_tick = 0;  // offer count when the lane opened
    std::vector<Command> commands;
  };

  std::uint64_t lane_key_of(const Command& cmd, std::uint32_t* cls_out) const;
  Lane* find_lane(std::uint64_t key);
  std::size_t flush_lane(std::size_t idx, std::vector<Batch>& out,
                         obs::Counter* reason);
  std::size_t oldest_lane() const;

  Config config_;
  std::vector<Lane> lanes_;  // small N: linear scan beats hashing here
  std::uint64_t tick_ = 0;   // total commands offered
  std::size_t buffered_ = 0;
  std::vector<std::uint64_t> class_loads_;

  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter* commands_offered_;
  obs::Counter* batches_formed_;
  obs::Counter* mixed_batches_;
  obs::Counter* flush_size_;
  obs::Counter* flush_age_;
  obs::Counter* flush_lanes_;
  obs::Counter* flush_drain_;
  obs::HistogramMetric* batch_fill_;
};

}  // namespace psmr::smr
