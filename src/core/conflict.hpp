// Batch conflict-detection strategies (paper Algorithm 1, lines 23–31).
//
// The scheduler is configured with one ConflictDetector; detectors are pure
// functions of the two batches, so every replica using the same detector
// derives the same dependency graph from the same delivery order — the core
// of deterministic scheduling.
#pragma once

#include <cstdint>

#include "smr/batch.hpp"

namespace psmr::core {

enum class ConflictMode : std::uint8_t {
  /// `cmmdKeyConflict` (lines 30–31): exact pairwise comparison of command
  /// keys with early exit — O(Bi·Bj) in the conflict-free case. This is
  /// what the paper's non-bitmap configurations run.
  kKeysNested = 0,
  /// Exact detection via a hash set over the smaller batch — O(Bi + Bj).
  /// Not in the paper; used by the ablation benches to separate "batching"
  /// gains from "cheap comparison" gains.
  kKeysHashed = 1,
  /// `bitmapConflict` (lines 28–29): dense word-wise AND over the bit
  /// arrays, exactly the paper's implementation — O(m/64) per pair.
  /// Subject to false positives, never false negatives.
  kBitmap = 2,
  /// Extension: identical answer to kBitmap, computed by probing the
  /// smaller batch's set positions against the other's dense array —
  /// O(min(Bi,Bj)) per pair. The ablation bench compares the two.
  kBitmapSparse = 3,
};

const char* to_string(ConflictMode m) noexcept;

/// Conflict-detection *indexing* strategy — orthogonal to ConflictMode.
/// Controls how the dependency graph finds the resident batches an incoming
/// batch must be pairwise-tested against; it never changes which edges are
/// added, so every setting yields the identical graph (and thus identical
/// replica behaviour) for the same delivery order.
enum class IndexMode : std::uint8_t {
  /// Pairwise test against every resident batch — Algorithm 1 lines 18–20
  /// verbatim. O(graph size) tests per insert.
  kScan = 0,
  /// Aggregate bitmap + bit→posting-list inverted index over conflict
  /// positions (hashed keys, or bitmap digest bits). A probe that misses
  /// the aggregate skips all pairwise tests in one pass; otherwise only the
  /// batches sharing a set position are tested. No false negatives: two
  /// batches can only conflict if they share a position.
  kIndexed = 1,
  /// kScan while the graph is small, kIndexed once it grows past the
  /// measured crossover (DependencyGraph::kIndexActivateAbove, with
  /// hysteresis on the way down). Like kIndexed, degrades to kScan for good
  /// the first time a non-indexable batch (split read/write digest) arrives.
  kAuto = 2,
};

const char* to_string(IndexMode m) noexcept;

struct ConflictStats {
  /// Command-pair (key modes) or word (bitmap mode) comparisons performed.
  std::uint64_t comparisons = 0;
  /// Batch-pair tests that reported a conflict.
  std::uint64_t conflicts_found = 0;
  /// Batch-pair tests performed.
  std::uint64_t tests = 0;
};

class ConflictDetector {
 public:
  explicit ConflictDetector(ConflictMode mode) : mode_(mode) {}

  ConflictMode mode() const noexcept { return mode_; }

  /// True iff batches a and b must be serialized. Accumulates cost counters
  /// into stats_ (single-threaded use: called only under the scheduler's
  /// monitor, per the paper's design).
  bool operator()(const smr::Batch& a, const smr::Batch& b);

  const ConflictStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  ConflictMode mode_;
  ConflictStats stats_;
};

}  // namespace psmr::core
