// EarlyScheduler correctness (DESIGN.md §13): configuration-time class →
// worker scheduling must be observationally identical to the graph-based
// Scheduler — bit-identical final KV state for the same delivery order —
// across class maps (uniform, range-with-unclassified-tail), worker counts
// and seeds, while executing multi-class batches exactly once via the
// delivery-order gate and unclassified batches through the embedded graph.
#include "core/early_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scheduler.hpp"
#include "kvstore/kvstore.hpp"
#include "smr/conflict_class.hpp"
#include "util/rng.hpp"

namespace psmr::core {
namespace {

smr::BatchPtr make_batch(std::uint64_t seq, std::vector<smr::Key> keys,
                         std::shared_ptr<const smr::ConflictClassMap> stamp = nullptr) {
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
  if (stamp != nullptr) b->stamp(stamp);
  return b;
}

/// Hot keys 0..23 (conflict-heavy) mixed with fresh keys >= 2^20.
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

/// Range map classifying only the hot keys: fresh keys fall through to the
/// embedded graph (the unclassified tail).
std::shared_ptr<const smr::ConflictClassMap> hot_range_map() {
  auto map = std::make_shared<smr::ConflictClassMap>();
  map->add_range(0, 5, 0);
  map->add_range(6, 11, 1);
  map->add_range(12, 17, 2);
  map->add_range(18, 23, 3);
  return map;
}

template <typename S>
std::vector<std::pair<smr::Key, smr::Value>> run_stream(
    SchedulerOptions cfg, const std::vector<std::vector<smr::Key>>& stream,
    const std::shared_ptr<const smr::ConflictClassMap>& stamp = nullptr) {
  kv::KvStore store;
  S s(cfg, [&](const smr::Batch& b) {
    for (const smr::Command& c : b.commands()) store.update(c.key, c.value);
  });
  s.start();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_TRUE(s.deliver(make_batch(i + 1, stream[i], stamp)));
  }
  s.wait_idle();
  s.stop();
  return store.snapshot();
}

TEST(EarlySchedulerTest, LockstepBitIdenticalKvState) {
  // The acceptance property: for several seeds, worker counts and class
  // maps, the final KV state equals the single Scheduler's entry for entry.
  for (const std::uint64_t seed : {7ull, 21ull, 1234ull}) {
    const auto stream = random_key_stream(seed, 300);
    SchedulerOptions ref_cfg;
    ref_cfg.workers = 4;
    const auto reference = run_stream<Scheduler>(ref_cfg, stream);
    for (const unsigned workers : {1u, 2u, 4u}) {
      SchedulerOptions cfg;
      cfg.workers = workers;  // null class_map -> uniform(workers)
      EXPECT_EQ(run_stream<EarlyScheduler>(cfg, stream), reference)
          << "seed=" << seed << " workers=" << workers << " (uniform map)";
      SchedulerOptions range_cfg;
      range_cfg.workers = workers;
      range_cfg.class_map = hot_range_map();
      EXPECT_EQ(run_stream<EarlyScheduler>(range_cfg, stream), reference)
          << "seed=" << seed << " workers=" << workers << " (range map)";
    }
  }
}

TEST(EarlySchedulerTest, LockstepWithPrecomputedClassMasks) {
  // Same property when the proxy has already stamped the class mask at
  // batch-formation time (deliver() trusts the fingerprint-matched mask).
  const auto stream = random_key_stream(99, 200);
  SchedulerOptions ref_cfg;
  ref_cfg.workers = 4;
  const auto reference = run_stream<Scheduler>(ref_cfg, stream);
  SchedulerOptions cfg;
  cfg.workers = 4;
  cfg.class_map = hot_range_map();
  EXPECT_EQ(run_stream<EarlyScheduler>(cfg, stream, cfg.class_map),
            reference);
}

TEST(EarlySchedulerTest, StaleClassStampIsRecomputed) {
  // A batch stamped under a DIFFERENT map (fingerprint mismatch) must be
  // re-classified on the spot — correctness never depends on proxy/replica
  // agreement.
  const auto stream = random_key_stream(4242, 200);
  SchedulerOptions ref_cfg;
  ref_cfg.workers = 4;
  const auto reference = run_stream<Scheduler>(ref_cfg, stream);
  const auto foreign =
      std::make_shared<const smr::ConflictClassMap>(smr::ConflictClassMap::uniform(3));
  SchedulerOptions cfg;
  cfg.workers = 4;
  cfg.class_map = hot_range_map();
  EXPECT_EQ(run_stream<EarlyScheduler>(cfg, stream, foreign), reference);
}

TEST(EarlySchedulerTest, DeterministicAcrossWorkerCounts) {
  // Worker count is an execution resource, never an ordering input — but
  // the class->worker binding changes with it, so the final state must
  // still match across counts.
  const auto stream = random_key_stream(5150, 250);
  std::vector<std::pair<smr::Key, smr::Value>> first;
  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    SchedulerOptions cfg;
    cfg.workers = workers;
    cfg.class_map = std::make_shared<const smr::ConflictClassMap>(
        smr::ConflictClassMap::uniform(8));
    const auto got = run_stream<EarlyScheduler>(cfg, stream);
    if (workers == 1) {
      first = got;
    } else {
      EXPECT_EQ(got, first) << "workers=" << workers;
    }
  }
}

TEST(EarlySchedulerTest, MultiClassBatchesExecuteExactlyOnce) {
  // Wide classified batches rendezvous across their touched workers and run
  // the executor exactly once; the path counters partition the stream.
  std::mutex mu;
  std::map<std::uint64_t, int> runs;
  SchedulerOptions cfg;
  cfg.workers = 4;
  cfg.class_map = std::make_shared<const smr::ConflictClassMap>(
      smr::ConflictClassMap::uniform(8));
  EarlyScheduler s(cfg, [&](const smr::Batch& b) {
    std::lock_guard lk(mu);
    ++runs[b.sequence()];
  });
  s.start();
  const std::size_t n = 200;
  for (std::uint64_t seq = 1; seq <= n; ++seq) {
    // 6 consecutive keys almost always span several classes (and workers).
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
  // Fully classified stream: fast-path + multi-class covers every batch,
  // and nothing reached the graph.
  EXPECT_EQ(st.counter("early.batches_fast_path") +
                st.counter("early.batches_multi_class"),
            n);
  EXPECT_GT(st.counter("early.batches_multi_class"), 0u);
  EXPECT_EQ(st.counter("early.batches_fallback"), 0u);
  EXPECT_EQ(st.counter("fallback.scheduler.batches_delivered"), 0u);
}

TEST(EarlySchedulerTest, UnclassifiedKeysFallBackToGraph) {
  // Keys outside every range rule route through the embedded graph engine;
  // mixed batches rendezvous between graph and class workers.
  SchedulerOptions cfg;
  cfg.workers = 2;
  cfg.class_map = hot_range_map();
  std::atomic<std::uint64_t> executed{0};
  EarlyScheduler s(cfg, [&](const smr::Batch&) { executed.fetch_add(1); });
  s.start();
  std::uint64_t seq = 0;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(s.deliver(make_batch(++seq, {smr::Key{3}})));  // class 0
    ASSERT_TRUE(s.deliver(make_batch(++seq, {smr::Key{1} << 30})));  // unclassified
  }
  ASSERT_TRUE(s.deliver(make_batch(++seq, {3, smr::Key{1} << 31})));  // mixed
  s.wait_idle();
  const auto st = s.stats();
  s.stop();
  EXPECT_EQ(executed.load(), 81u);
  EXPECT_EQ(st.counter("early.batches_fast_path"), 40u);
  EXPECT_EQ(st.counter("early.batches_fallback"), 41u);
  EXPECT_EQ(st.counter("early.batches_multi_class"), 1u);
  // The embedded engine saw exactly the unclassified-touching batches.
  EXPECT_EQ(st.counter("fallback.scheduler.batches_delivered"), 41u);
  EXPECT_EQ(st.counter("scheduler.batches_executed"), 81u);
}

TEST(EarlySchedulerTest, FastPathFractionAndQueueDepths) {
  SchedulerOptions cfg;
  cfg.workers = 2;
  cfg.class_map = std::make_shared<const smr::ConflictClassMap>(
      smr::ConflictClassMap::uniform(2));
  EarlyScheduler s(cfg, [](const smr::Batch&) {});
  s.start();
  const std::size_t n = 100;
  std::uint64_t key = 0;
  for (std::uint64_t seq = 1; seq <= n; ++seq) {
    // One key per batch -> always exactly one class -> pure fast path.
    ASSERT_TRUE(s.deliver(make_batch(seq, {key++})));
  }
  s.wait_idle();
  const auto st = s.stats();
  s.stop();
  EXPECT_EQ(st.counter("early.batches_fast_path"), n);
  EXPECT_DOUBLE_EQ(st.gauge("early.fast_path_fraction"), 1.0);
  EXPECT_EQ(st.gauge("early.class_workers"), 2.0);
  EXPECT_EQ(st.gauge("early.classes"), 2.0);
  // Every push recorded a queue-depth sample on its owner's histogram.
  EXPECT_EQ(st.histogram("early.worker.0.queue_depth").count +
                st.histogram("early.worker.1.queue_depth").count,
            n);
}

TEST(EarlySchedulerTest, FailureFiresOnFailureOnceAndIsolates) {
  // A throwing executor on the fast path: counted once, on_failure fires
  // once, and later batches on the same worker still run.
  SchedulerOptions cfg;
  cfg.workers = 2;
  cfg.class_map = std::make_shared<const smr::ConflictClassMap>(
      smr::ConflictClassMap::uniform(2));
  std::atomic<std::uint64_t> executed{0};
  EarlyScheduler s(cfg, [&](const smr::Batch& b) {
    if (b.sequence() == 2) throw std::runtime_error("fast-path poison");
    executed.fetch_add(1);
  });
  std::atomic<int> failures{0};
  s.set_on_failure([&](const smr::Batch& b, const std::string& what) {
    EXPECT_EQ(b.sequence(), 2u);
    EXPECT_EQ(what, "fast-path poison");
    failures.fetch_add(1);
  });
  s.start();
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    ASSERT_TRUE(s.deliver(make_batch(seq, {smr::Key{0}})));  // one class
  }
  s.wait_idle();
  const auto st = s.stats();
  s.stop();
  EXPECT_EQ(executed.load(), 5u);
  EXPECT_EQ(failures.load(), 1);
  EXPECT_EQ(st.counter("scheduler.batches_failed"), 1u);
  EXPECT_EQ(st.counter("scheduler.batches_executed"), 5u);
  EXPECT_FALSE(s.degraded());
}

TEST(EarlySchedulerTest, MultiClassFailureFiresOnFailureOnce) {
  // A throwing executor on a batch that spans every class worker AND the
  // embedded graph engine (a five-participant gate): counted once in
  // batches_failed, on_failure fires once (from the leader), and the
  // dependents queued behind it in every touched class — and behind its
  // unclassified key in the graph — still run.
  SchedulerOptions cfg;
  cfg.workers = 4;
  cfg.class_map = hot_range_map();  // classes 0..3 -> workers 0..3
  const smr::Key cold = smr::Key{1} << 30;  // unclassified
  std::mutex mu;
  std::vector<std::uint64_t> ran;
  EarlyScheduler s(cfg, [&](const smr::Batch& b) {
    if (b.sequence() == 2) throw std::runtime_error("multi-class poison");
    std::lock_guard lk(mu);
    ran.push_back(b.sequence());
  });
  std::atomic<int> failures{0};
  s.set_on_failure([&](const smr::Batch& b, const std::string& what) {
    EXPECT_EQ(b.sequence(), 2u);
    EXPECT_EQ(what, "multi-class poison");
    failures.fetch_add(1);
  });
  s.start();
  const std::vector<smr::Key> wide = {0, 6, 12, 18, cold};  // one key per class
  ASSERT_TRUE(s.deliver(make_batch(1, wide)));
  ASSERT_TRUE(s.deliver(make_batch(2, wide)));  // throws
  std::uint64_t seq = 2;
  for (const smr::Key k : {smr::Key{0}, smr::Key{6}, smr::Key{12}, smr::Key{18}, cold}) {
    ASSERT_TRUE(s.deliver(make_batch(++seq, {k})));  // depends on 2
  }
  s.wait_idle();
  const auto st = s.stats();
  s.stop();
  std::sort(ran.begin(), ran.end());
  EXPECT_EQ(ran, (std::vector<std::uint64_t>{1, 3, 4, 5, 6, 7}));
  EXPECT_EQ(failures.load(), 1);
  EXPECT_EQ(st.counter("scheduler.batches_failed"), 1u);
  EXPECT_EQ(st.counter("scheduler.batches_executed"), 6u);
  EXPECT_EQ(st.counter("early.batches_multi_class"), 2u);
  EXPECT_FALSE(s.degraded());
}

TEST(EarlySchedulerTest, BarrierQuiescesAtSequence) {
  // drain_to_sequence(S) from the delivery thread: everything <= S executes,
  // nothing > S starts until release, deliver() keeps accepting throughout.
  std::mutex mu;
  std::vector<std::uint64_t> executed;
  SchedulerOptions cfg;
  cfg.workers = 2;
  cfg.class_map = hot_range_map();
  EarlyScheduler s(cfg, [&](const smr::Batch& b) {
    std::lock_guard lk(mu);
    executed.push_back(b.sequence());
  });
  s.start();
  // Mix of fast-path, multi-class and fallback batches in the prefix.
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    std::vector<smr::Key> keys = {smr::Key{seq % 24}};
    if (seq % 2 == 0) keys.push_back(smr::Key{1} << 30);  // mixed/gated
    ASSERT_TRUE(s.deliver(make_batch(seq, keys)));
  }
  s.drain_to_sequence(5);
  {
    std::lock_guard lk(mu);
    EXPECT_EQ(executed.size(), 5u);
  }
  for (std::uint64_t seq = 6; seq <= 10; ++seq) {
    ASSERT_TRUE(s.deliver(make_batch(seq, {smr::Key{seq % 24}})));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard lk(mu);
    EXPECT_EQ(executed.size(), 5u) << "batch newer than the barrier ran";
  }
  s.release_barrier();
  s.wait_idle();
  s.stop();
  std::lock_guard lk(mu);
  EXPECT_EQ(executed.size(), 10u);
}

TEST(EarlySchedulerTest, EmptyMapDegeneratesToGraph) {
  // An empty ConflictClassMap classifies nothing: every batch routes
  // through the embedded graph and the result still matches the reference.
  const auto stream = random_key_stream(31337, 150);
  SchedulerOptions ref_cfg;
  ref_cfg.workers = 2;
  const auto reference = run_stream<Scheduler>(ref_cfg, stream);
  SchedulerOptions cfg;
  cfg.workers = 2;
  cfg.class_map = std::make_shared<const smr::ConflictClassMap>();
  kv::KvStore store;
  EarlyScheduler s(cfg, [&](const smr::Batch& b) {
    for (const smr::Command& c : b.commands()) store.update(c.key, c.value);
  });
  s.start();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(s.deliver(make_batch(i + 1, stream[i])));
  }
  s.wait_idle();
  const auto st = s.stats();
  s.stop();
  EXPECT_EQ(store.snapshot(), reference);
  EXPECT_EQ(st.counter("early.batches_fast_path"), 0u);
  EXPECT_EQ(st.counter("early.batches_fallback"), stream.size());
}

}  // namespace
}  // namespace psmr::core
