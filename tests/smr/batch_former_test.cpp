// BatchFormer: affinity-aware batch formation (DESIGN.md §15). Covers the
// two policies, the three flush watermarks, the mixed lane, stamping of
// flushed batches, per-class load attribution, and placement swaps.
#include "smr/batch_former.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "smr/batch.hpp"
#include "smr/conflict_class.hpp"

namespace psmr::smr {
namespace {

Command update(Key key) {
  Command c;
  c.type = OpType::kUpdate;
  c.key = key;
  c.value = key * 10;
  return c;
}

/// keys 0..99 -> class 0, 100..199 -> class 1.
std::shared_ptr<const ConflictClassMap> two_class_map() {
  auto m = std::make_shared<ConflictClassMap>();
  m->add_range(0, 99, 0);
  m->add_range(100, 199, 1);
  return m;
}

TEST(BatchFormer, ObliviousReproducesAppendUntilFull) {
  BatchFormer::Config cfg;
  cfg.policy = FormationPolicy::kOblivious;
  cfg.batch_size = 4;
  BatchFormer former(cfg);
  std::vector<Batch> out;
  for (Key k = 0; k < 10; ++k) former.offer(update(k), out);
  ASSERT_EQ(out.size(), 2u);  // flushed at 4 and 8
  former.drain(out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].size(), 4u);
  EXPECT_EQ(out[1].size(), 4u);
  EXPECT_EQ(out[2].size(), 2u);
  // FIFO within and across batches: the oblivious former is a no-op
  // reordering-wise.
  Key expect = 0;
  for (const Batch& b : out) {
    for (const Command& c : b.commands()) EXPECT_EQ(c.key, expect++);
  }
  EXPECT_EQ(former.buffered(), 0u);
}

TEST(BatchFormer, AffinityFormsClassPureBatches) {
  BatchFormer::Config cfg;
  cfg.policy = FormationPolicy::kAffinity;
  cfg.batch_size = 3;
  cfg.class_map = two_class_map();
  BatchFormer former(cfg);
  std::vector<Batch> out;
  // Worst case for oblivious packing: perfectly interleaved classes.
  for (int i = 0; i < 3; ++i) {
    former.offer(update(static_cast<Key>(i)), out);        // class 0
    former.offer(update(static_cast<Key>(100 + i)), out);  // class 1
  }
  former.drain(out);
  ASSERT_EQ(out.size(), 2u);
  for (const Batch& b : out) {
    EXPECT_EQ(b.size(), 3u);
    // Exactly one class bit per batch — the early scheduler's fast path.
    EXPECT_EQ(__builtin_popcountll(b.class_mask()), 1);
    EXPECT_EQ(b.class_map_fingerprint(), cfg.class_map->fingerprint());
  }
  EXPECT_NE(out[0].class_mask(), out[1].class_mask());
}

TEST(BatchFormer, HomelessCommandsCollectInMixedLane) {
  BatchFormer::Config cfg;
  cfg.policy = FormationPolicy::kAffinity;
  cfg.batch_size = 4;
  cfg.class_map = two_class_map();  // keys >= 200 unclassified
  BatchFormer former(cfg);
  std::vector<Batch> out;
  former.offer(update(5), out);     // class 0
  former.offer(update(500), out);   // homeless
  former.offer(update(600), out);   // homeless
  former.offer(update(105), out);   // class 1
  former.drain(out);
  ASSERT_EQ(out.size(), 3u);
  std::size_t mixed = 0;
  for (const Batch& b : out) {
    if ((b.class_mask() & ConflictClassMap::kUnclassifiedBit) != 0) {
      ++mixed;
      EXPECT_EQ(b.size(), 2u);  // both homeless keys, no classified mixed in
    }
  }
  EXPECT_EQ(mixed, 1u);
  // Homeless load lands in the dedicated tail slot.
  EXPECT_EQ(former.class_loads()[ConflictClassMap::kMaxClasses], 2u);
  EXPECT_EQ(former.class_loads()[0], 1u);
  EXPECT_EQ(former.class_loads()[1], 1u);
}

TEST(BatchFormer, AgeWatermarkBoundsFormationLatency) {
  BatchFormer::Config cfg;
  cfg.policy = FormationPolicy::kAffinity;
  cfg.batch_size = 8;
  cfg.max_lane_age = 10;
  cfg.class_map = two_class_map();
  BatchFormer former(cfg);
  std::vector<Batch> out;
  former.offer(update(150), out);  // cold lane (class 1), opened at tick 1
  EXPECT_TRUE(out.empty());
  // Traffic split between class 0 and the mixed lane so neither reaches the
  // size watermark; the cold single-command lane must still flush once 10
  // commands have been offered since it opened.
  for (Key k = 0; k < 12 && out.empty(); ++k) {
    former.offer(update(k % 2 == 0 ? k : 200 + k), out);
  }
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0].commands().front().key, 150u);
}

TEST(BatchFormer, LaneCountWatermarkFlushesOldestFirst) {
  BatchFormer::Config cfg;
  cfg.policy = FormationPolicy::kAffinity;
  cfg.batch_size = 8;
  cfg.max_open_lanes = 2;
  cfg.max_lane_age = 1000;
  auto m = std::make_shared<ConflictClassMap>();
  m->add_range(0, 9, 0);
  m->add_range(10, 19, 1);
  m->add_range(20, 29, 2);
  cfg.class_map = std::move(m);
  BatchFormer former(cfg);
  std::vector<Batch> out;
  former.offer(update(0), out);   // lane A (oldest)
  former.offer(update(10), out);  // lane B
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(former.open_lanes(), 2u);
  former.offer(update(20), out);  // lane C evicts A
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].commands().front().key, 0u);
  EXPECT_EQ(former.open_lanes(), 2u);
}

TEST(BatchFormer, AffinityWithoutMapDegeneratesToOblivious) {
  BatchFormer::Config cfg;
  cfg.policy = FormationPolicy::kAffinity;
  cfg.batch_size = 3;
  BatchFormer former(cfg);
  std::vector<Batch> out;
  for (Key k = 0; k < 7; ++k) former.offer(update(k), out);
  former.drain(out);
  ASSERT_EQ(out.size(), 3u);
  Key expect = 0;
  for (const Batch& b : out) {
    for (const Command& c : b.commands()) EXPECT_EQ(c.key, expect++);
  }
}

TEST(BatchFormer, SetPlacementStampsSubsequentFlushesUnderNewMap) {
  BatchFormer::Config cfg;
  cfg.policy = FormationPolicy::kAffinity;
  cfg.batch_size = 2;
  cfg.class_map = two_class_map();
  BatchFormer former(cfg);
  std::vector<Batch> out;
  former.offer(update(1), out);
  former.offer(update(2), out);
  ASSERT_EQ(out.size(), 1u);
  const std::uint64_t old_fp = out[0].class_map_fingerprint();

  auto next = std::make_shared<ConflictClassMap>();
  next->add_range(0, 49, 0);
  next->add_range(50, 199, 1);
  former.set_placement(next);
  former.offer(update(60), out);
  former.offer(update(61), out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].class_map_fingerprint(), next->fingerprint());
  EXPECT_NE(out[1].class_map_fingerprint(), old_fp);
  EXPECT_EQ(out[1].class_mask(), std::uint64_t{1} << 1);
}

TEST(BatchFormer, WatermarkCountersAttributeFlushes) {
  BatchFormer::Config cfg;
  cfg.policy = FormationPolicy::kAffinity;
  cfg.batch_size = 2;
  cfg.class_map = two_class_map();
  BatchFormer former(cfg);
  std::vector<Batch> out;
  former.offer(update(0), out);
  former.offer(update(1), out);    // size flush
  former.offer(update(100), out);  // stays open
  former.drain(out);               // drain flush
  const obs::Snapshot snap = former.stats();
  EXPECT_EQ(snap.counter("former.flush.size"), 1u);
  EXPECT_EQ(snap.counter("former.flush.drain"), 1u);
  EXPECT_EQ(snap.counter("former.batches_formed"), 2u);
  EXPECT_EQ(snap.counter("former.commands_offered"), 3u);
}

}  // namespace
}  // namespace psmr::smr
