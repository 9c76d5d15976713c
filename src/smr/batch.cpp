#include "smr/batch.hpp"

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace psmr::smr {

std::size_t shard_of_key(Key key, unsigned shards) noexcept {
  // mix64 + Lemire reduction: uniform over [0, S) with no modulo bias, and
  // a pure function of the key (replica-identical, hash.hpp contract).
  return static_cast<std::size_t>(util::reduce_range(util::mix64(key), shards));
}

std::uint64_t compute_shard_mask(const Batch& batch, unsigned shards) noexcept {
  std::uint64_t mask = 0;
  for (const Command& c : batch.commands()) {
    mask |= std::uint64_t{1} << shard_of_key(c.key, shards);
  }
  return mask;
}

void Batch::stamp(const PlacementMaps& maps) {
  const bool do_shards = maps.shards != 0;
  const bool do_classes = maps.class_map != nullptr;
  if (do_shards) PSMR_CHECK(maps.shards <= 64);
  if (!do_shards && !do_classes) return;
  std::uint64_t smask = 0;
  std::uint64_t cmask = 0;
  for (const Command& c : commands_) {
    if (do_shards) smask |= std::uint64_t{1} << shard_of_key(c.key, maps.shards);
    if (do_classes) cmask |= maps.class_map->class_mask_of(c);
  }
  if (do_shards) {
    shard_mask_ = smask;
    shard_count_ = maps.shards;
  }
  if (do_classes) {
    class_mask_ = cmask;
    class_fp_ = maps.class_map->fingerprint();
  }
}

std::uint64_t compute_class_mask(const Batch& batch,
                                 const ConflictClassMap& map) noexcept {
  std::uint64_t mask = 0;
  for (const Command& c : batch.commands()) {
    mask |= map.class_mask_of(c);
  }
  return mask;
}

void Batch::build_bitmap(const BitmapConfig& cfg) {
  bloom_ = util::KeyBloom(cfg.bits, 1, cfg.seed);
  positions_.clear();
  for (const Command& c : commands_) {
    const std::size_t pos = bloom_.bit_index(c.key, 0);
    if (!bloom_.bitmap().test(pos)) positions_.push_back(static_cast<std::uint32_t>(pos));
    bloom_.mutable_bitmap().set(pos);
  }
}

bool bitmap_conflict(const Batch& a, const Batch& b) noexcept {
  return a.bloom().intersects(b.bloom());
}

bool key_conflict_nested(const Batch& a, const Batch& b) noexcept {
  for (const Command& ca : a.commands()) {
    for (const Command& cb : b.commands()) {
      if (commands_conflict(ca, cb)) return true;
    }
  }
  return false;
}

}  // namespace psmr::smr
