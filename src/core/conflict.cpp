#include "core/conflict.hpp"

#include "util/assert.hpp"

namespace psmr::core {

const char* to_string(ConflictMode m) noexcept {
  switch (m) {
    case ConflictMode::kKeysNested: return "keys-nested";
    case ConflictMode::kBitmap: return "bitmap";
  }
  return "?";
}

bool ConflictDetector::operator()(const smr::Batch& a, const smr::Batch& b) {
  ++stats_.tests;
  bool conflict = false;
  switch (mode_) {
    case ConflictMode::kKeysNested:
      // Cost model matches the early-exit nested loop: on a miss we paid
      // |a|*|b| comparisons; on a hit, some prefix of that. We count the
      // worst case for misses and the full product for hits as an upper
      // bound — the relative cost across configurations is what matters.
      conflict = smr::key_conflict_nested(a, b);
      stats_.comparisons += a.size() * b.size();
      break;
    case ConflictMode::kBitmap:
      PSMR_CHECK(a.has_bitmap() && b.has_bitmap());
      conflict = smr::bitmap_conflict(a, b);
      stats_.comparisons += a.bloom().bitmap().size_words();
      break;
  }
  if (conflict) ++stats_.conflicts_found;
  return conflict;
}

}  // namespace psmr::core
