#include "smr/conflict_class.hpp"

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace psmr::smr {

ConflictClassMap ConflictClassMap::uniform(std::uint32_t classes) {
  PSMR_CHECK(classes >= 1 && classes <= kMaxClasses);
  ConflictClassMap map;
  map.uniform_classes_ = classes;
  map.num_classes_ = classes;
  return map;
}

void ConflictClassMap::add_range(Key lo, Key hi, std::uint32_t cls) {
  PSMR_CHECK(lo <= hi);
  PSMR_CHECK(cls < kMaxClasses);
  PSMR_CHECK(uniform_classes_ == 0);  // uniform maps take no extra rules
  ranges_.push_back(RangeRule{lo, hi, cls});
  if (cls + 1 > num_classes_) num_classes_ = cls + 1;
}

std::uint32_t ConflictClassMap::class_of_key(Key key) const noexcept {
  if (uniform_classes_ != 0) {
    return static_cast<std::uint32_t>(
        util::reduce_range(util::mix64(key), uniform_classes_));
  }
  for (const RangeRule& r : ranges_) {
    if (key >= r.lo && key <= r.hi) return r.cls;
  }
  return kUnclassified;
}

std::uint64_t ConflictClassMap::class_mask_of(const Command& c) const noexcept {
  const std::uint32_t cls = class_of(c);
  if (cls == kUnclassified) return kUnclassifiedBit;
  return std::uint64_t{1} << cls;
}

std::uint64_t ConflictClassMap::fingerprint() const noexcept {
  // Order-sensitive chain over every rule; seeded so the empty map still
  // hashes to something recognizable and nonzero.
  std::uint64_t h = util::mix64(0x9e3779b97f4a7c15ULL);
  h = util::mix64(h ^ uniform_classes_);
  for (const RangeRule& r : ranges_) {
    h = util::mix64(h ^ r.lo);
    h = util::mix64(h ^ r.hi);
    h = util::mix64(h ^ r.cls);
  }
  return h == 0 ? 1 : h;
}

}  // namespace psmr::smr
