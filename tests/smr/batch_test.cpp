#include "smr/batch.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace psmr::smr {
namespace {

Command update(Key k) {
  Command c;
  c.type = OpType::kUpdate;
  c.key = k;
  return c;
}

Command read(Key k) {
  Command c;
  c.type = OpType::kRead;
  c.key = k;
  return c;
}

Batch make_batch(std::vector<Command> cmds, const BitmapConfig* cfg = nullptr) {
  Batch b(std::move(cmds));
  if (cfg != nullptr) b.build_bitmap(*cfg);
  return b;
}

TEST(Batch, BasicProperties) {
  Batch b({update(1), update(2)});
  EXPECT_EQ(b.size(), 2u);
  EXPECT_FALSE(b.empty());
  EXPECT_FALSE(b.has_bitmap());
  b.set_sequence(5);
  b.set_proxy_id(9);
  EXPECT_EQ(b.sequence(), 5u);
  EXPECT_EQ(b.proxy_id(), 9u);
}

TEST(KeyConflictNested, DetectsSharedWriteKey) {
  Batch a = make_batch({update(1), update(2)});
  Batch b = make_batch({update(3), update(2)});
  EXPECT_TRUE(key_conflict_nested(a, b));
}

TEST(KeyConflictNested, DisjointBatchesDoNotConflict) {
  Batch a = make_batch({update(1), update(2)});
  Batch b = make_batch({update(3), update(4)});
  EXPECT_FALSE(key_conflict_nested(a, b));
}

TEST(KeyConflictNested, ReadOnlyOverlapIsIndependent) {
  Batch a = make_batch({read(1), read(2)});
  Batch b = make_batch({read(2), read(3)});
  EXPECT_FALSE(key_conflict_nested(a, b));
  Batch c = make_batch({update(2)});
  EXPECT_TRUE(key_conflict_nested(a, c));
}

TEST(BitmapConflict, NeverFalseNegative) {
  // THE safety property (§V): key conflict implies bitmap conflict, for
  // every bitmap size, including pathologically small ones.
  util::Xoshiro256 rng(37);
  for (std::size_t bits : {64u, 256u, 102400u}) {
    BitmapConfig cfg;
    cfg.bits = bits;
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<Command> ca, cb;
      for (int i = 0; i < 10; ++i) ca.push_back(update(rng.next_below(50)));
      for (int i = 0; i < 10; ++i) cb.push_back(update(rng.next_below(50)));
      Batch a = make_batch(std::move(ca), &cfg);
      Batch b = make_batch(std::move(cb), &cfg);
      if (key_conflict_nested(a, b)) {
        EXPECT_TRUE(bitmap_conflict(a, b)) << "bits=" << bits << " trial=" << trial;
      }
    }
  }
}

TEST(BitmapConflict, LargeBitmapRarelyFalsePositive) {
  util::Xoshiro256 rng(41);
  BitmapConfig cfg;
  cfg.bits = 1024000;
  int false_positives = 0;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<Command> ca, cb;
    for (int i = 0; i < 100; ++i) ca.push_back(update(rng()));
    for (int i = 0; i < 100; ++i) cb.push_back(update(rng()));
    Batch a = make_batch(std::move(ca), &cfg);
    Batch b = make_batch(std::move(cb), &cfg);
    if (!key_conflict_nested(a, b) && bitmap_conflict(a, b)) ++false_positives;
  }
  EXPECT_LE(false_positives, 10);  // analytic rate ≈ 1%
}

TEST(BitmapConflict, UnifiedBitmapFlagsReadOnlyOverlap) {
  // The paper's single-bitmap scheme cannot distinguish reads from writes:
  // two read-only batches on the same key DO raise a (false) conflict.
  BitmapConfig cfg;
  cfg.bits = 102400;
  Batch a = make_batch({read(7)}, &cfg);
  Batch b = make_batch({read(7)}, &cfg);
  EXPECT_TRUE(bitmap_conflict(a, b));
  EXPECT_FALSE(key_conflict_nested(a, b));  // exact detection knows better
}

TEST(BitmapPositions, DeduplicatedAndConsistentWithBitmap) {
  BitmapConfig cfg;
  cfg.bits = 4096;
  // Repeated keys must not duplicate positions.
  Batch b({update(7), update(7), update(9), update(7)});
  b.build_bitmap(cfg);
  EXPECT_EQ(b.bitmap_positions().size(), b.bloom().bits_set());
  for (std::uint32_t pos : b.bitmap_positions()) {
    EXPECT_TRUE(b.bloom().bitmap().test(pos));
  }
}

TEST(Batch, BuildBitmapIsIdempotent) {
  BitmapConfig cfg;
  cfg.bits = 1024;
  Batch b({update(1), update(2)});
  b.build_bitmap(cfg);
  const auto first = b.bloom().bitmap();
  b.build_bitmap(cfg);
  EXPECT_EQ(b.bloom().bitmap(), first);
}

TEST(Batch, EmptyBatchBitmapIsEmpty) {
  BitmapConfig cfg;
  cfg.bits = 1024;
  Batch a(std::vector<Command>{});
  a.build_bitmap(cfg);
  Batch b({update(1)});
  b.build_bitmap(cfg);
  EXPECT_FALSE(bitmap_conflict(a, b));
  EXPECT_FALSE(bitmap_conflict(a, a));
}

}  // namespace
}  // namespace psmr::smr
