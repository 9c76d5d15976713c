#include "smr/batch.hpp"

namespace psmr::smr {

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
