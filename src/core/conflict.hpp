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
  /// `bitmapConflict` (lines 28–29): dense word-wise AND over the batches'
  /// one-hash digests, exactly the paper's implementation — O(m/64) per
  /// pair. Subject to false positives, never false negatives. Every batch
  /// must carry a digest (smr::Batch::build_bitmap).
  kBitmap = 2,
};

const char* to_string(ConflictMode m) noexcept;

struct ConflictStats {
  /// Command-pair (keys mode) or word (bitmap mode) comparisons performed.
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
