// ShardedScheduler correctness (DESIGN.md §11): key-partitioned execution
// must be observationally identical to the single Scheduler — bit-identical
// final KV state for the same delivery order, across shard counts, seeds
// and worker counts — while executing cross-shard batches exactly once via
// the delivery-order gate.
#include "core/sharded_scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/scheduler.hpp"
#include "kvstore/kvstore.hpp"
#include "util/rng.hpp"

namespace psmr::core {
namespace {

smr::BatchPtr make_batch(std::uint64_t seq, std::vector<smr::Key> keys,
                         unsigned stamp_shards = 0) {
  std::vector<smr::Command> cmds;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    smr::Command c;
    c.type = smr::OpType::kUpdate;
    c.key = keys[i];
    c.value = seq * 1000 + i;
    cmds.push_back(c);
  }
  auto b = std::make_shared<smr::Batch>(std::move(cmds));
  b->set_sequence(seq);
  if (stamp_shards != 0) b->stamp(smr::PlacementMaps{stamp_shards, nullptr});
  return b;
}

/// The random batch stream shared by the lockstep tests: mixes hot keys
/// (which conflict across batches AND across shards) with fresh keys.
std::vector<std::vector<smr::Key>> random_key_stream(std::uint64_t seed,
                                                     std::size_t n_batches) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<smr::Key>> out;
  smr::Key fresh = 1u << 20;
  for (std::size_t i = 0; i < n_batches; ++i) {
    std::vector<smr::Key> keys;
    const std::size_t n_keys = 1 + rng.next_below(4);
    for (std::size_t k = 0; k < n_keys; ++k) {
      keys.push_back(rng.next_bool(0.5) ? rng.next_below(24) : fresh++);
    }
    out.push_back(std::move(keys));
  }
  return out;
}

/// Runs `stream` through a scheduler applying kUpdate commands to a fresh
/// KvStore; returns the final sorted snapshot.
template <typename S>
std::vector<std::pair<smr::Key, smr::Value>> run_stream(
    SchedulerOptions cfg, const std::vector<std::vector<smr::Key>>& stream,
    unsigned stamp_shards = 0) {
  kv::KvStore store;
  S s(cfg, [&](const smr::Batch& b) {
    for (const smr::Command& c : b.commands()) store.update(c.key, c.value);
  });
  s.start();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_TRUE(s.deliver(make_batch(i + 1, stream[i], stamp_shards)));
  }
  s.wait_idle();
  s.stop();
  return store.snapshot();
}

TEST(ShardedSchedulerTest, LockstepBitIdenticalKvState) {
  // The acceptance property: for S in {1,2,4} and several seeds, the final
  // KV state equals the single Scheduler's, entry for entry.
  for (const std::uint64_t seed : {7ull, 21ull, 1234ull}) {
    const auto stream = random_key_stream(seed, 300);
    SchedulerOptions ref_cfg;
    ref_cfg.workers = 4;
    const auto reference = run_stream<Scheduler>(ref_cfg, stream);
    for (const unsigned shards : {1u, 2u, 4u}) {
      SchedulerOptions cfg;
      cfg.workers = 2;
      cfg.shards = shards;
      const auto got = run_stream<ShardedScheduler>(cfg, stream);
      EXPECT_EQ(got, reference) << "seed=" << seed << " shards=" << shards;
    }
  }
}

TEST(ShardedSchedulerTest, LockstepWithPrecomputedShardMasks) {
  // Same property when the proxy has already stamped the touched-shard set
  // at batch-formation time (deliver() trusts the mask instead of
  // recomputing it).
  const auto stream = random_key_stream(99, 200);
  SchedulerOptions ref_cfg;
  ref_cfg.workers = 4;
  const auto reference = run_stream<Scheduler>(ref_cfg, stream);
  SchedulerOptions cfg;
  cfg.workers = 2;
  cfg.shards = 4;
  EXPECT_EQ(run_stream<ShardedScheduler>(cfg, stream, /*stamp_shards=*/4),
            reference);
}

TEST(ShardedSchedulerTest, DeterministicAcrossWorkerCounts) {
  // Worker count is an execution resource, never an ordering input.
  const auto stream = random_key_stream(5150, 250);
  std::vector<std::pair<smr::Key, smr::Value>> first;
  for (const unsigned workers : {1u, 2u, 4u}) {
    SchedulerOptions cfg;
    cfg.workers = workers;
    cfg.shards = 4;
    const auto got = run_stream<ShardedScheduler>(cfg, stream);
    if (workers == 1) {
      first = got;
    } else {
      EXPECT_EQ(got, first) << "workers=" << workers;
    }
  }
}

TEST(ShardedSchedulerTest, CrossShardBatchesExecuteExactlyOnce) {
  // Every delivered batch — single- or cross-shard — runs the executor
  // exactly once, and the top-level counters agree.
  std::mutex mu;
  std::map<std::uint64_t, int> runs;
  SchedulerOptions cfg;
  cfg.workers = 2;
  cfg.shards = 4;
  ShardedScheduler s(cfg, [&](const smr::Batch& b) {
    std::lock_guard lk(mu);
    ++runs[b.sequence()];
  });
  s.start();
  const std::size_t n = 200;
  for (std::uint64_t seq = 1; seq <= n; ++seq) {
    // Wide batches: 6 consecutive keys almost always span several shards.
    std::vector<smr::Key> keys;
    for (smr::Key k = 0; k < 6; ++k) keys.push_back(seq * 3 + k);
    ASSERT_TRUE(s.deliver(make_batch(seq, keys)));
  }
  s.wait_idle();
  s.check_invariants();
  const auto st = s.stats();
  s.stop();
  ASSERT_EQ(runs.size(), n);
  for (const auto& [seq, count] : runs) {
    EXPECT_EQ(count, 1) << "sequence " << seq;
  }
  EXPECT_EQ(st.counter("scheduler.batches_delivered"), n);
  EXPECT_EQ(st.counter("scheduler.batches_executed"), n);
  EXPECT_EQ(st.counter("scheduler.commands_executed"), n * 6);
  EXPECT_EQ(st.counter("scheduler.batches_single_shard") +
                st.counter("scheduler.batches_cross_shard"),
            n);
  EXPECT_GT(st.counter("scheduler.batches_cross_shard"), 0u);
}

TEST(ShardedSchedulerTest, SingleShardBatchesSkipTheGate) {
  // Partition-friendly batches (all keys in one shard) count as
  // single-shard, and per-shard engine metrics appear under shard.N. in
  // the merged snapshot.
  SchedulerOptions cfg;
  cfg.workers = 2;
  cfg.shards = 4;
  std::atomic<std::uint64_t> executed{0};
  ShardedScheduler s(cfg, [&](const smr::Batch&) { executed.fetch_add(1); });
  s.start();
  const std::size_t n = 120;
  std::uint64_t key_cursor = 0;
  for (std::uint64_t seq = 1; seq <= n; ++seq) {
    // All keys of the batch routed to the same shard by construction.
    const std::size_t target = seq % cfg.shards;
    std::vector<smr::Key> keys;
    while (keys.size() < 4) {
      if (s.shard_of(key_cursor) == target) keys.push_back(key_cursor);
      ++key_cursor;
    }
    ASSERT_TRUE(s.deliver(make_batch(seq, keys)));
  }
  s.wait_idle();
  const auto st = s.stats();
  s.stop();
  EXPECT_EQ(executed.load(), n);
  EXPECT_EQ(st.counter("scheduler.batches_single_shard"), n);
  EXPECT_EQ(st.counter("scheduler.batches_cross_shard"), 0u);
  EXPECT_EQ(st.gauge("scheduler.cross_shard_fraction"), 0.0);
  // Each engine's snapshot is merged under shard.N.; barrier participation
  // equals exactly-once totals here because no batch crossed shards.
  std::uint64_t per_shard_sum = 0;
  for (unsigned i = 0; i < cfg.shards; ++i) {
    per_shard_sum += st.counter("shard." + std::to_string(i) +
                                ".scheduler.batches_executed");
  }
  EXPECT_EQ(per_shard_sum, n);
  EXPECT_EQ(st.counter_sum("scheduler.batches_executed"),
            n + per_shard_sum);  // top-level + the four shard views
}

TEST(ShardedSchedulerTest, CrossShardFailureFiresOnFailureOnce) {
  // A throwing executor on a cross-shard batch: counted once in the
  // top-level batches_failed, on_failure fires once (from the leader
  // shard), and dependents in every touched shard still run.
  SchedulerOptions cfg;
  cfg.workers = 2;
  cfg.shards = 4;
  std::atomic<std::uint64_t> executed{0};
  ShardedScheduler s(cfg, [&](const smr::Batch& b) {
    if (b.sequence() == 2) throw std::runtime_error("cross-shard poison");
    executed.fetch_add(1);
  });
  std::atomic<int> failures{0};
  s.set_on_failure([&](const smr::Batch& b, const std::string& what) {
    EXPECT_EQ(b.sequence(), 2u);
    EXPECT_EQ(what, "cross-shard poison");
    failures.fetch_add(1);
  });
  s.start();
  // Keys 0..7 span all four shards with overwhelming probability.
  std::vector<smr::Key> wide;
  for (smr::Key k = 0; k < 8; ++k) wide.push_back(k);
  ASSERT_TRUE(s.deliver(make_batch(1, wide)));
  ASSERT_TRUE(s.deliver(make_batch(2, wide)));  // throws
  ASSERT_TRUE(s.deliver(make_batch(3, wide)));  // depends on 2 in every shard
  s.wait_idle();
  const auto st = s.stats();
  s.stop();
  EXPECT_EQ(executed.load(), 2u);
  EXPECT_EQ(failures.load(), 1);
  EXPECT_EQ(st.counter("scheduler.batches_failed"), 1u);
  EXPECT_EQ(st.counter("scheduler.batches_executed"), 2u);
  EXPECT_FALSE(s.degraded());
}

TEST(ShardedSchedulerTest, CrossShardFractionGauge) {
  SchedulerOptions cfg;
  cfg.workers = 1;
  cfg.shards = 2;
  ShardedScheduler s(cfg, [](const smr::Batch&) {});
  s.start();
  // One key per batch -> single-shard; a two-shard batch every 4th.
  std::uint64_t seq = 0;
  smr::Key a = 0;
  while (s.shard_of(a) != 0) ++a;
  smr::Key b = 0;
  while (s.shard_of(b) != 1) ++b;
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(s.deliver(make_batch(++seq, {a})));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(s.deliver(make_batch(++seq, {a, b})));
  }
  s.wait_idle();
  const auto st = s.stats();
  s.stop();
  EXPECT_EQ(st.counter("scheduler.batches_single_shard"), 12u);
  EXPECT_EQ(st.counter("scheduler.batches_cross_shard"), 4u);
  EXPECT_DOUBLE_EQ(st.gauge("scheduler.cross_shard_fraction"), 4.0 / 16.0);
}

}  // namespace
}  // namespace psmr::core
