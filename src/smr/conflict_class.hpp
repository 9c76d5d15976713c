// Conflict-class declaration surface for early scheduling (DESIGN.md §13).
//
// Early Scheduling in PSMR (Mendizabal et al., extended line of work) moves
// the scheduling decision from delivery time to CONFIGURATION time: the
// application declares, up front, which commands can conflict — as conflict
// CLASSES — and each class is bound to a worker (or worker set) by a pure
// function fixed when the replica is configured. At delivery the scheduler
// then only reads a precomputed class mask and pushes the batch onto the
// owning worker's queue; no dependency graph, no conflict probe.
//
// A ConflictClassMap is that declaration: rules mapping key ranges to small
// integer class ids (< 64, so a batch's touched-class set fits one mask
// word), or a uniform hash partition of the whole key space.
// Keys matched by no rule are UNCLASSIFIED — the early scheduler routes
// batches touching them through its embedded dependency graph, recovering
// the paper's general mechanism as a fallback.
//
// Soundness contract (the early-scheduling papers put this on the
// declarer): any two commands that can conflict must either be mapped to
// the same class, or both be left unclassified. Every map satisfies this by
// construction: conflicting commands share a key, and the class of a
// command is a function of its key alone.
//
// The map is fixed for a scheduler's lifetime (DESIGN.md §13.1); all
// replicas must configure the identical map (like the bitmap hash config).
// fingerprint() lets a scheduler detect that a batch was stamped with a
// DIFFERENT map and recompute the mask on the spot, so correctness never
// depends on proxy/replica agreement — only cost does.
#pragma once

#include <cstdint>
#include <vector>

#include "smr/command.hpp"

namespace psmr::smr {

class ConflictClassMap {
 public:
  /// Class ids are < 64 so bit 63 of a class mask can flag "touches an
  /// unclassified key" (the graph-fallback bit).
  static constexpr std::uint32_t kMaxClasses = 63;
  /// Sentinel class id: "no rule matched" (graph fallback).
  static constexpr std::uint32_t kUnclassified = 0xFFFFFFFFu;
  /// Mask bit carried by batches that touch any unclassified key.
  static constexpr std::uint64_t kUnclassifiedBit = std::uint64_t{1} << 63;

  /// Empty map: every command is unclassified (the early scheduler then
  /// degenerates to its embedded graph engine).
  ConflictClassMap() = default;

  /// Hash-partitions the whole key space into `classes` classes. Never
  /// leaves a key unclassified; sound by construction.
  static ConflictClassMap uniform(std::uint32_t classes);

  /// Declares keys in [lo, hi] (inclusive) as class `cls`. Rules are
  /// checked in declaration order; the first match wins. Keys no rule
  /// matches stay unclassified.
  void add_range(Key lo, Key hi, std::uint32_t cls);

  /// 1 + the highest class id any rule can produce (uniform(C) → C).
  /// 0 for the empty map.
  std::uint32_t num_classes() const noexcept { return num_classes_; }

  bool empty() const noexcept { return num_classes_ == 0; }

  /// Class of a key under the range rules / uniform partition.
  /// kUnclassified when nothing matches.
  std::uint32_t class_of_key(Key key) const noexcept;

  /// Class of a command: the class of its key.
  std::uint32_t class_of(const Command& c) const noexcept { return class_of_key(c.key); }

  /// One-bit mask for a command: 1 << class_of(c), or kUnclassifiedBit.
  std::uint64_t class_mask_of(const Command& c) const noexcept;

  /// Deterministic class → worker binding, fixed at configuration time
  /// (DESIGN.md §13). A pure function so every replica — and the proxy, if
  /// it cares — agrees on the owner of every class.
  static std::size_t worker_of_class(std::uint32_t cls, unsigned workers) noexcept {
    return static_cast<std::size_t>(cls % (workers == 0 ? 1u : workers));
  }

  /// Order-sensitive digest of every rule. Nonzero; two maps built from the
  /// same declarations in the same order have equal fingerprints. Batches
  /// stamp it alongside their class mask so schedulers can spot a stale or
  /// foreign stamp.
  std::uint64_t fingerprint() const noexcept;

 private:
  struct RangeRule {
    Key lo;
    Key hi;
    std::uint32_t cls;
  };

  std::uint32_t uniform_classes_ = 0;  // nonzero = uniform hash partition
  std::vector<RangeRule> ranges_;
  std::uint32_t num_classes_ = 0;
};

}  // namespace psmr::smr
