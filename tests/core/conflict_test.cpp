#include "core/conflict.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace psmr::core {
namespace {

smr::Batch updates(std::initializer_list<smr::Key> keys, const smr::BitmapConfig* cfg = nullptr) {
  std::vector<smr::Command> cmds;
  for (smr::Key k : keys) {
    smr::Command c;
    c.type = smr::OpType::kUpdate;
    c.key = k;
    cmds.push_back(c);
  }
  smr::Batch b(std::move(cmds));
  if (cfg) b.build_bitmap(*cfg);
  return b;
}

TEST(ConflictDetector, KeysNestedDetects) {
  ConflictDetector d(ConflictMode::kKeysNested);
  EXPECT_TRUE(d(updates({1, 2}), updates({2, 3})));
  EXPECT_FALSE(d(updates({1, 2}), updates({3, 4})));
  EXPECT_EQ(d.stats().tests, 2u);
  EXPECT_EQ(d.stats().conflicts_found, 1u);
  EXPECT_GT(d.stats().comparisons, 0u);
}

TEST(ConflictDetector, BitmapDetects) {
  smr::BitmapConfig cfg;
  cfg.bits = 102400;
  ConflictDetector d(ConflictMode::kBitmap);
  EXPECT_TRUE(d(updates({1, 2}, &cfg), updates({2, 3}, &cfg)));
  EXPECT_FALSE(d(updates({1, 2}, &cfg), updates({3, 4}, &cfg)));
}

TEST(ConflictDetector, NestedCostIsQuadratic) {
  ConflictDetector d(ConflictMode::kKeysNested);
  d(updates({1, 2, 3, 4, 5}), updates({10, 11, 12, 13}));
  EXPECT_EQ(d.stats().comparisons, 20u);
}

TEST(ConflictDetector, BitmapCostIndependentOfBatchSize) {
  smr::BitmapConfig cfg;
  cfg.bits = 102400;
  ConflictDetector d(ConflictMode::kBitmap);
  d(updates({1}, &cfg), updates({2}, &cfg));
  const auto one = d.stats().comparisons;
  d(updates({1, 2, 3, 4, 5, 6, 7, 8}, &cfg), updates({11, 12, 13, 14, 15, 16, 17, 18}, &cfg));
  EXPECT_EQ(d.stats().comparisons, one * 2);  // same word count per test
}

TEST(ConflictDetector, AllModesAgreeOnTrueConflicts) {
  // The bitmap may add false positives but never misses a true conflict.
  util::Xoshiro256 rng(51);
  smr::BitmapConfig cfg;
  cfg.bits = 1024000;
  ConflictDetector nested(ConflictMode::kKeysNested);
  ConflictDetector bitmap(ConflictMode::kBitmap);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<smr::Key> ka, kb;
    for (int i = 0; i < 10; ++i) ka.push_back(rng.next_below(40));
    for (int i = 0; i < 10; ++i) kb.push_back(rng.next_below(40));
    smr::Batch a = updates({}, nullptr), b = updates({}, nullptr);
    for (smr::Key k : ka) {
      smr::Command c;
      c.type = smr::OpType::kUpdate;
      c.key = k;
      a.mutable_commands().push_back(c);
    }
    for (smr::Key k : kb) {
      smr::Command c;
      c.type = smr::OpType::kUpdate;
      c.key = k;
      b.mutable_commands().push_back(c);
    }
    a.build_bitmap(cfg);
    b.build_bitmap(cfg);
    const bool exact = nested(a, b);
    if (exact) {
      EXPECT_TRUE(bitmap(a, b));
    }
  }
}

TEST(ConflictDetector, ResetStatsZeroes) {
  ConflictDetector d(ConflictMode::kKeysNested);
  d(updates({1}), updates({1}));
  d.reset_stats();
  EXPECT_EQ(d.stats().tests, 0u);
  EXPECT_EQ(d.stats().comparisons, 0u);
  EXPECT_EQ(d.stats().conflicts_found, 0u);
}

TEST(ConflictMode, Names) {
  EXPECT_STREQ(to_string(ConflictMode::kKeysNested), "keys-nested");
  EXPECT_STREQ(to_string(ConflictMode::kBitmap), "bitmap");
}

}  // namespace
}  // namespace psmr::core
