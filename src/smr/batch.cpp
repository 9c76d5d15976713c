#include "smr/batch.hpp"

#include <unordered_map>

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
  split_rw_ = cfg.split_read_write;
  write_bloom_ = util::KeyBloom(cfg.bits, cfg.hashes, cfg.seed);
  positions_.clear();
  if (split_rw_) {
    read_bloom_ = util::KeyBloom(cfg.bits, cfg.hashes, cfg.seed);
    for (const Command& c : commands_) {
      (c.is_write() ? write_bloom_ : read_bloom_).add(c.key);
    }
  } else {
    read_bloom_ = util::KeyBloom();
    // The paper's scheme: one digest over every key the batch touches,
    // regardless of read/write — conservative but never unsafe.
    for (const Command& c : commands_) {
      for (unsigned h = 0; h < cfg.hashes; ++h) {
        const std::size_t pos = write_bloom_.bit_index(c.key, h);
        if (!write_bloom_.bitmap().test(pos)) {
          positions_.push_back(static_cast<std::uint32_t>(pos));
        }
        write_bloom_.mutable_bitmap().set(pos);
      }
    }
  }
}

bool bitmap_conflict(const Batch& a, const Batch& b) noexcept {
  if (a.split_read_write() && b.split_read_write()) {
    return a.write_bloom().intersects(b.write_bloom()) ||
           a.write_bloom().intersects(b.read_bloom()) ||
           a.read_bloom().intersects(b.write_bloom());
  }
  return a.write_bloom().intersects(b.write_bloom());
}

bool bitmap_conflict_sparse(const Batch& a, const Batch& b) noexcept {
  const Batch& probe = a.bitmap_positions().size() <= b.bitmap_positions().size() ? a : b;
  const Batch& dense = &probe == &a ? b : a;
  const util::Bitmap& bits = dense.write_bloom().bitmap();
  for (std::uint32_t pos : probe.bitmap_positions()) {
    if (bits.test(pos)) return true;
  }
  return false;
}

bool key_conflict_nested(const Batch& a, const Batch& b) noexcept {
  for (const Command& ca : a.commands()) {
    for (const Command& cb : b.commands()) {
      if (commands_conflict(ca, cb)) return true;
    }
  }
  return false;
}

bool key_conflict_hashed(const Batch& a, const Batch& b) {
  const Batch& small = a.size() <= b.size() ? a : b;
  const Batch& large = a.size() <= b.size() ? b : a;
  // Value encodes whether any command on this key in `small` writes it.
  std::unordered_map<Key, bool> keys;
  keys.reserve(small.size() * 2);
  for (const Command& c : small.commands()) {
    auto [it, inserted] = keys.try_emplace(c.key, c.is_write());
    if (!inserted) it->second = it->second || c.is_write();
  }
  for (const Command& c : large.commands()) {
    auto it = keys.find(c.key);
    if (it != keys.end() && (c.is_write() || it->second)) return true;
  }
  return false;
}

}  // namespace psmr::smr
