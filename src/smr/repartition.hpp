// Epoch repartitioning: adaptive ConflictClassMap rebalance through the
// total order (DESIGN.md §15; deterministic-reconfiguration discipline of
// Optimistic Parallel SMR-style systems, arXiv 1404.6721).
//
// Early scheduling binds conflict classes to workers at CONFIGURATION time
// (DESIGN.md §13) — which is exactly what goes wrong when the workload
// drifts: a class that turns hot overloads its one worker while the others
// idle. The fix must not break replica determinism, so it is split in two:
//
//   * DETECTION is heuristic and local. The proxy-side Repartitioner
//     watches per-class load (fed from the BatchFormer's class counters, or
//     ingested from any obs::Snapshot carrying per-index counters — the
//     replica-side `early.worker.N.*` family works too,
//     since class → worker binding is a pure function). When an epoch
//     closes imbalanced, it proposes a new map: the hottest class's widest
//     key range is split at its midpoint and the upper half moves to the
//     coldest class.
//   * APPLICATION is deterministic and delivery-ordered. The proposed map
//     is encoded as a batch of OpType::kRepartition commands and broadcast
//     through the SAME atomic broadcast as data. Every replica intercepts
//     the batch at delivery (Replica::deliver), quiesces its scheduler at
//     that sequence (the PR-6 checkpoint barrier), swaps the map, and
//     resumes — all replicas apply the same map at the same sequence, so
//     lockstep holds bit-identically. Batches stamped under the old map
//     carry a stale fingerprint afterwards; schedulers already recompute
//     on fingerprint mismatch, so a slow proxy costs cycles, never
//     correctness.
//
// Proposals from concurrent proxies are serialized by the total order like
// any other command; last-writer-wins at each replica, identically.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "smr/batch.hpp"
#include "smr/conflict_class.hpp"

namespace psmr::smr {

/// True iff `batch` is a repartition control batch (non-empty, every
/// command kRepartition). Cheap; called once per delivery.
bool is_repartition(const Batch& batch) noexcept;

/// Encodes `map` as a broadcast-ready batch of kRepartition commands. Only
/// range/default/kind/uniform rules are carried — exactly the
/// ConflictClassMap surface — in declaration order, so the decoded map's
/// fingerprint() equals the source map's. Commands carry sequence 0
/// (untracked: they bypass session dedup; delivering a retransmitted
/// repartition twice re-applies the same map — idempotent).
Batch encode_repartition(const ConflictClassMap& map);

/// Decodes a repartition batch back into a map. Null on a malformed batch
/// (wrong command types, bad record tags, rule constraints violated) — the
/// replica then ignores the batch rather than diverging on garbage.
std::shared_ptr<const ConflictClassMap> decode_repartition(const Batch& batch);

/// Proxy-side hot-class detector. Deterministic given its inputs, but its
/// inputs are local load observations — determinism ACROSS replicas comes
/// from the total order, not from this class.
class Repartitioner {
 public:
  struct Config {
    /// Epoch length in observed commands; a proposal is considered at each
    /// epoch boundary. 0 disables repartitioning entirely.
    std::uint64_t epoch_commands = 8192;
    /// Trigger: propose when max class load >= imbalance_factor * mean
    /// load over the classes the map can produce.
    double imbalance_factor = 2.0;
    /// Registry for `repartition.*` metrics. null = private registry.
    std::shared_ptr<obs::MetricsRegistry> metrics;
  };

  Repartitioner(Config config, std::shared_ptr<const ConflictClassMap> initial);

  /// Accumulates `n` observed commands of class `cls` into the running
  /// epoch (pass ConflictClassMap::kUnclassified for homeless load — it is
  /// counted toward the epoch length but never targeted by a split).
  void record(std::uint32_t cls, std::uint64_t n);

  /// Convenience feed: adds the DELTA between `loads` (cumulative per-class
  /// counters, BatchFormer::class_loads layout) and the last ingested
  /// values.
  void ingest(const std::vector<std::uint64_t>& cumulative_loads);

  /// Closes the epoch if due and imbalanced: returns the proposed map
  /// (already adopted as current_ — the caller broadcasts it), else null.
  std::shared_ptr<const ConflictClassMap> maybe_repartition();

  /// Adopts an externally decided map (e.g. another proxy's proposal came
  /// back through the order) without proposing.
  void adopt(std::shared_ptr<const ConflictClassMap> map);

  const std::shared_ptr<const ConflictClassMap>& current() const noexcept {
    return current_;
  }

  std::uint64_t epochs_closed() const noexcept { return epochs_->value(); }
  std::uint64_t proposals() const noexcept { return proposals_->value(); }

  /// The pure split rule, exposed for tests: returns the rebalanced map, or
  /// null when no legal split exists (uniform map, no range rules, hottest
  /// class owns no splittable range...). Deterministic in (map, loads).
  static std::shared_ptr<const ConflictClassMap> split_hottest(
      const ConflictClassMap& map, const std::vector<std::uint64_t>& loads,
      double imbalance_factor);

 private:
  Config config_;
  std::shared_ptr<const ConflictClassMap> current_;
  std::vector<std::uint64_t> epoch_loads_;
  std::vector<std::uint64_t> ingested_;  // last cumulative feed
  std::uint64_t epoch_observed_ = 0;

  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter* epochs_;
  obs::Counter* proposals_;
  obs::Counter* skipped_balanced_;
  obs::Counter* skipped_unsplittable_;
};

}  // namespace psmr::smr
