#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

namespace psmr::workload {
namespace {

TEST(RecentKeyPool, EmptyPoolSamplesNothing) {
  RecentKeyPool pool;
  util::Xoshiro256 rng(1);
  EXPECT_FALSE(pool.sample(rng).has_value());
}

TEST(RecentKeyPool, SamplesFromAddedKeys) {
  RecentKeyPool pool(16);
  const std::vector<smr::Key> keys = {10, 20, 30};
  pool.add(keys);
  util::Xoshiro256 rng(2);
  for (int i = 0; i < 100; ++i) {
    const auto k = pool.sample(rng);
    ASSERT_TRUE(k.has_value());
    EXPECT_TRUE(*k == 10 || *k == 20 || *k == 30);
  }
}

TEST(RecentKeyPool, RingEvictsOldKeys) {
  RecentKeyPool pool(4);
  pool.add(std::vector<smr::Key>{1, 2, 3, 4});
  pool.add(std::vector<smr::Key>{5, 6, 7, 8});  // evicts 1-4
  util::Xoshiro256 rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto k = pool.sample(rng);
    ASSERT_TRUE(k.has_value());
    EXPECT_GE(*k, 5u);
  }
}

TEST(Generator, DisjointKeysNeverRepeat) {
  GeneratorConfig cfg;
  cfg.disjoint_keys = true;
  cfg.batch_size = 10;
  Generator gen(cfg, /*proxy_index=*/0, nullptr);
  std::unordered_set<smr::Key> seen;
  for (int i = 0; i < 10'000; ++i) {
    const auto cmd = gen.next(0, i);
    EXPECT_TRUE(seen.insert(cmd.key).second) << "duplicate key " << cmd.key;
  }
}

TEST(Generator, DisjointRangesPerProxyDoNotOverlap) {
  GeneratorConfig cfg;
  cfg.disjoint_keys = true;
  Generator g0(cfg, 0, nullptr), g1(cfg, 1, nullptr);
  std::unordered_set<smr::Key> k0;
  for (int i = 0; i < 5000; ++i) k0.insert(g0.next(0, i).key);
  for (int i = 0; i < 5000; ++i) EXPECT_FALSE(k0.contains(g1.next(0, i).key));
}

TEST(Generator, CostAndTypePropagate) {
  GeneratorConfig cfg;
  cfg.cost_ns = 1234;
  cfg.read_fraction = 0.0;
  Generator gen(cfg, 0, nullptr);
  const auto cmd = gen.next(7, 3);
  EXPECT_EQ(cmd.cost_ns, 1234u);
  EXPECT_EQ(cmd.type, smr::OpType::kUpdate);
}

TEST(Generator, ReadFractionApproximatelyRespected) {
  GeneratorConfig cfg;
  cfg.read_fraction = 0.3;
  Generator gen(cfg, 0, nullptr);
  int reads = 0;
  constexpr int kN = 20'000;
  for (int i = 0; i < kN; ++i) reads += gen.next(0, i).is_read() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(reads) / kN, 0.3, 0.02);
}

TEST(Generator, ZeroConflictRateTouchesNoPoolKeys) {
  RecentKeyPool pool;
  pool.add(std::vector<smr::Key>{999999999999ull});
  GeneratorConfig cfg;
  cfg.conflict_rate = 0.0;
  cfg.disjoint_keys = true;
  Generator gen(cfg, 0, &pool);
  for (int i = 0; i < 1000; ++i) EXPECT_NE(gen.next(0, i).key, 999999999999ull);
  EXPECT_EQ(gen.conflicting_batches(), 0u);
}

TEST(Generator, ConflictRateProducesPoolKeys) {
  RecentKeyPool pool;
  GeneratorConfig cfg;
  cfg.conflict_rate = 0.5;
  cfg.batch_size = 10;
  cfg.disjoint_keys = true;
  // Another proxy seeds the pool.
  std::vector<smr::Key> other = {1ull << 50, (1ull << 50) + 1};
  pool.add(other);
  Generator gen(cfg, 0, &pool);
  std::set<smr::Key> other_set(other.begin(), other.end());
  int batches_with_pool_key = 0;
  constexpr int kBatches = 2000;
  for (int b = 0; b < kBatches; ++b) {
    bool hit = false;
    for (int j = 0; j < 10; ++j) {
      if (other_set.contains(gen.next(0, b * 10 + j).key)) hit = true;
    }
    batches_with_pool_key += hit ? 1 : 0;
    // Re-seed: the generator's own keys pollute the pool (as in real runs);
    // keep the pool dominated by "other proxy" keys for a crisp count.
    pool.add(other);
  }
  // Most samples draw the generator's own previously-issued keys (10 own
  // keys enter the pool per batch vs 2 re-seeded "other" keys), so hits on
  // `other` specifically are a small but steady fraction.
  EXPECT_GT(batches_with_pool_key, kBatches / 25);
  EXPECT_GT(gen.conflicting_batches(), static_cast<std::uint64_t>(kBatches) * 4 / 10);
  EXPECT_LT(gen.conflicting_batches(), static_cast<std::uint64_t>(kBatches) * 6 / 10);
}

TEST(Generator, ZipfModeProducesSkew) {
  GeneratorConfig cfg;
  cfg.distribution = KeyDistribution::kZipf;
  cfg.zipf_theta = 0.99;
  cfg.key_space = 1000;
  Generator gen(cfg, 0, nullptr);
  std::map<smr::Key, int> counts;
  for (int i = 0; i < 50'000; ++i) ++counts[gen.next(0, i).key];
  // Hottest key should dominate the average count massively.
  int max_count = 0;
  for (const auto& [k, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 50'000 / 1000 * 10);
}

TEST(Generator, DeterministicGivenSeedAndProxy) {
  GeneratorConfig cfg;
  cfg.seed = 5;
  Generator a(cfg, 3, nullptr), b(cfg, 3, nullptr);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(0, i).key, b.next(0, i).key);
  }
}

TEST(Generator, DifferentProxiesDifferentStreams) {
  GeneratorConfig cfg;
  cfg.seed = 5;
  Generator a(cfg, 0, nullptr), b(cfg, 1, nullptr);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) any_diff = any_diff || (a.next(0, i).key != b.next(0, i).key);
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace psmr::workload
