#include "smr/batch_former.hpp"

#include <utility>

#include "util/assert.hpp"

namespace psmr::smr {

const char* to_string(FormationPolicy p) noexcept {
  switch (p) {
    case FormationPolicy::kOblivious: return "oblivious";
    case FormationPolicy::kAffinity: return "affinity";
  }
  return "?";
}

BatchFormer::BatchFormer(Config config)
    : config_(std::move(config)),
      class_loads_(ConflictClassMap::kMaxClasses + 1, 0),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : std::make_shared<obs::MetricsRegistry>()),
      commands_offered_(&metrics_->counter("former.commands_offered")),
      batches_formed_(&metrics_->counter("former.batches_formed")),
      mixed_batches_(&metrics_->counter("former.mixed_batches")),
      flush_size_(&metrics_->counter("former.flush.size")),
      flush_age_(&metrics_->counter("former.flush.age")),
      flush_lanes_(&metrics_->counter("former.flush.lane_count")),
      flush_drain_(&metrics_->counter("former.flush.drain")),
      batch_fill_(&metrics_->histogram("former.batch_fill")) {
  PSMR_CHECK(config_.batch_size >= 1);
  if (config_.max_open_lanes == 0) config_.max_open_lanes = 64;
  if (config_.max_lane_age == 0) config_.max_lane_age = 4 * config_.batch_size;
  PSMR_CHECK(config_.max_lane_age >= config_.batch_size);
}

std::uint64_t BatchFormer::lane_key_of(const Command& cmd,
                                       std::uint32_t* cls_out) const {
  if (config_.policy == FormationPolicy::kOblivious) {
    // One lane: key choice is irrelevant, loads still attributed below.
    if (config_.class_map != nullptr) *cls_out = config_.class_map->class_of(cmd);
    return 0;
  }
  if (config_.class_map == nullptr) {
    // No map: every command is homeless. A single mixed lane with the size
    // watermark is exactly oblivious packing.
    return kMixedLane;
  }
  const std::uint32_t cls = config_.class_map->class_of(cmd);
  *cls_out = cls;
  if (cls == ConflictClassMap::kUnclassified) return kMixedLane;
  return cls;
}

BatchFormer::Lane* BatchFormer::find_lane(std::uint64_t key) {
  for (Lane& lane : lanes_) {
    if (lane.key == key) return &lane;
  }
  return nullptr;
}

std::size_t BatchFormer::oldest_lane() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < lanes_.size(); ++i) {
    if (lanes_[i].opened_tick < lanes_[best].opened_tick) best = i;
  }
  return best;
}

std::size_t BatchFormer::flush_lane(std::size_t idx, std::vector<Batch>& out,
                                    obs::Counter* reason) {
  Lane lane = std::move(lanes_[idx]);
  lanes_.erase(lanes_.begin() + static_cast<std::ptrdiff_t>(idx));
  if (lane.commands.empty()) return 0;
  buffered_ -= lane.commands.size();
  batch_fill_->record(lane.commands.size());
  if (lane.key == kMixedLane) mixed_batches_->add(1);
  Batch batch(std::move(lane.commands));
  batch.stamp(config_.class_map);
  out.push_back(std::move(batch));
  batches_formed_->add(1);
  reason->add(1);
  return 1;
}

std::size_t BatchFormer::offer(Command cmd, std::vector<Batch>& out) {
  ++tick_;
  commands_offered_->add(1);
  std::uint32_t cls = ConflictClassMap::kUnclassified;
  const std::uint64_t key = lane_key_of(cmd, &cls);
  class_loads_[cls == ConflictClassMap::kUnclassified
                   ? ConflictClassMap::kMaxClasses
                   : cls] += 1;

  std::size_t flushed = 0;
  Lane* lane = find_lane(key);
  if (lane == nullptr) {
    if (lanes_.size() >= config_.max_open_lanes) {
      flushed += flush_lane(oldest_lane(), out, flush_lanes_);
    }
    lanes_.push_back(Lane{key, tick_, {}});
    lane = &lanes_.back();
    lane->commands.reserve(config_.batch_size);
  }
  lane->commands.push_back(cmd);
  ++buffered_;

  // SIZE watermark on the command's own lane. Find the lane's index (it may
  // have moved if the lane-count flush above erased an earlier entry).
  if (lane->commands.size() >= config_.batch_size) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (lanes_[i].key == key) {
        flushed += flush_lane(i, out, flush_size_);
        break;
      }
    }
  }

  // AGE watermark over every remaining lane (deterministic: offer-count
  // clock). Oldest-first so flush order matches opening order.
  for (;;) {
    bool again = false;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (tick_ - lanes_[i].opened_tick >= config_.max_lane_age) {
        flushed += flush_lane(i, out, flush_age_);
        again = true;
        break;
      }
    }
    if (!again) break;
  }
  metrics_->gauge("former.open_lanes").set(static_cast<double>(lanes_.size()));
  return flushed;
}

std::size_t BatchFormer::drain(std::vector<Batch>& out) {
  std::size_t flushed = 0;
  while (!lanes_.empty()) {
    flushed += flush_lane(oldest_lane(), out, flush_drain_);
  }
  metrics_->gauge("former.open_lanes").set(0.0);
  return flushed;
}

void BatchFormer::set_placement(std::shared_ptr<const ConflictClassMap> class_map) {
  config_.class_map = std::move(class_map);
}

}  // namespace psmr::smr
