#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/kvstore.hpp"
#include "util/rng.hpp"

namespace psmr::core {
namespace {

using namespace std::chrono_literals;

smr::BatchPtr make_batch(std::uint64_t seq, std::vector<smr::Key> keys,
                         const smr::BitmapConfig* cfg = nullptr) {
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
  if (cfg != nullptr) b->build_bitmap(*cfg);
  return b;
}

TEST(Scheduler, ExecutesEverythingDelivered) {
  std::atomic<std::uint64_t> executed{0};
  SchedulerOptions cfg;
  cfg.workers = 4;
  Scheduler s(cfg, [&](const smr::Batch& b) { executed.fetch_add(b.size()); });
  s.start();
  for (std::uint64_t i = 1; i <= 100; ++i) {
    EXPECT_TRUE(s.deliver(make_batch(i, {i * 10, i * 10 + 1})));
  }
  s.wait_idle();
  EXPECT_EQ(executed.load(), 200u);
  const auto st = s.stats();
  EXPECT_EQ(st.counter("scheduler.batches_executed"), 100u);
  EXPECT_EQ(st.counter("scheduler.commands_executed"), 200u);
  s.stop();
}

TEST(Scheduler, StopDrainsOutstandingWork) {
  std::atomic<std::uint64_t> executed{0};
  SchedulerOptions cfg;
  cfg.workers = 2;
  Scheduler s(cfg, [&](const smr::Batch&) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    executed.fetch_add(1);
  });
  s.start();
  for (std::uint64_t i = 1; i <= 50; ++i) s.deliver(make_batch(i, {i}));
  s.stop();  // must drain, not abandon
  EXPECT_EQ(executed.load(), 50u);
}

TEST(Scheduler, DeliverAfterStopIsRejected) {
  SchedulerOptions cfg;
  Scheduler s(cfg, [](const smr::Batch&) {});
  s.start();
  s.stop();
  EXPECT_FALSE(s.deliver(make_batch(1, {1})));
}

TEST(Scheduler, ConflictingBatchesExecuteInDeliveryOrder) {
  // All batches write the same key: execution must be fully serial in
  // delivery order even with many workers.
  std::mutex mu;
  std::vector<std::uint64_t> order;
  SchedulerOptions cfg;
  cfg.workers = 8;
  Scheduler s(cfg, [&](const smr::Batch& b) {
    std::lock_guard lk(mu);
    order.push_back(b.sequence());
  });
  s.start();
  for (std::uint64_t i = 1; i <= 200; ++i) s.deliver(make_batch(i, {42}));
  s.wait_idle();
  s.stop();
  ASSERT_EQ(order.size(), 200u);
  for (std::uint64_t i = 0; i < 200; ++i) EXPECT_EQ(order[i], i + 1);
}

TEST(Scheduler, IndependentBatchesRunConcurrently) {
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  SchedulerOptions cfg;
  cfg.workers = 8;
  Scheduler s(cfg, [&](const smr::Batch&) {
    const int now = concurrent.fetch_add(1) + 1;
    int expected = max_concurrent.load();
    while (now > expected && !max_concurrent.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    concurrent.fetch_sub(1);
  });
  s.start();
  for (std::uint64_t i = 1; i <= 64; ++i) s.deliver(make_batch(i, {i}));
  s.wait_idle();
  s.stop();
  EXPECT_GT(max_concurrent.load(), 2);
}

TEST(Scheduler, BackpressureBoundsGraph) {
  SchedulerOptions cfg;
  cfg.workers = 1;
  cfg.max_pending_batches = 4;
  std::atomic<bool> release{false};
  Scheduler s(cfg, [&](const smr::Batch&) {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::microseconds(50));
  });
  s.start();
  std::atomic<int> delivered{0};
  std::thread feeder([&] {
    for (std::uint64_t i = 1; i <= 20; ++i) {
      s.deliver(make_batch(i, {i}));
      delivered.fetch_add(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(delivered.load(), 5);  // 4 in graph + 1 in flight
  EXPECT_LE(s.graph_size(), 4u);
  release.store(true);
  feeder.join();
  s.wait_idle();
  s.stop();
}

// Deterministic per-key write-order recording service: verifies the
// fundamental PSMR safety property across modes/threads/workloads.
class VersionRecorder {
 public:
  void apply(const smr::Batch& b) {
    for (const smr::Command& c : b.commands()) {
      std::lock_guard lk(mu_);
      versions_[c.key].push_back(c.value);
    }
  }
  std::map<smr::Key, std::vector<smr::Value>> take() {
    std::lock_guard lk(mu_);
    return versions_;
  }

 private:
  std::mutex mu_;
  std::map<smr::Key, std::vector<smr::Value>> versions_;
};

struct SafetyParam {
  ConflictMode mode;
  unsigned workers;
  std::size_t batch_size;
  double conflict_key_fraction;  // fraction of keys drawn from a hot pool
};

class SchedulerSafetyTest : public ::testing::TestWithParam<SafetyParam> {};

TEST_P(SchedulerSafetyTest, PerKeyWriteOrderMatchesSequentialExecution) {
  const SafetyParam p = GetParam();
  util::Xoshiro256 rng(1234);
  smr::BitmapConfig bcfg;
  bcfg.bits = 102400;

  // Build a workload: 300 batches with a mix of fresh and hot keys.
  std::vector<smr::BatchPtr> batches;
  std::uint64_t fresh = 1'000'000;
  for (std::uint64_t seq = 1; seq <= 300; ++seq) {
    std::vector<smr::Key> keys;
    for (std::size_t i = 0; i < p.batch_size; ++i) {
      keys.push_back(rng.next_bool(p.conflict_key_fraction) ? rng.next_below(20) : fresh++);
    }
    batches.push_back(make_batch(seq, std::move(keys),
                                 p.mode == ConflictMode::kBitmap ? &bcfg : nullptr));
  }

  // Oracle: sequential execution in delivery order.
  VersionRecorder sequential;
  for (const auto& b : batches) sequential.apply(*b);
  const auto expected = sequential.take();

  // Parallel execution.
  VersionRecorder parallel;
  SchedulerOptions cfg;
  cfg.workers = p.workers;
  cfg.mode = p.mode;
  Scheduler s(cfg, [&](const smr::Batch& b) { parallel.apply(b); });
  s.start();
  for (const auto& b : batches) s.deliver(b);
  s.wait_idle();
  s.check_invariants();
  s.stop();

  // Conflicting commands hit the same key; their relative order must match
  // the sequential oracle exactly, for every key.
  EXPECT_EQ(parallel.take(), expected);
}

INSTANTIATE_TEST_SUITE_P(
    ModesThreadsWorkloads, SchedulerSafetyTest,
    ::testing::Values(
        SafetyParam{ConflictMode::kKeysNested, 1, 1, 0.5},
        SafetyParam{ConflictMode::kKeysNested, 4, 1, 0.5},
        SafetyParam{ConflictMode::kKeysNested, 16, 1, 0.9},
        SafetyParam{ConflictMode::kKeysNested, 8, 10, 0.3},
        SafetyParam{ConflictMode::kKeysNested, 16, 25, 0.6},
        SafetyParam{ConflictMode::kBitmap, 4, 10, 0.3},
        SafetyParam{ConflictMode::kBitmap, 8, 25, 0.5},
        SafetyParam{ConflictMode::kBitmap, 16, 50, 0.1},
        SafetyParam{ConflictMode::kBitmap, 16, 1, 0.9}),
    [](const ::testing::TestParamInfo<SafetyParam>& param_info) {
      const SafetyParam& p = param_info.param;
      std::string name = to_string(p.mode);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_w" + std::to_string(p.workers) + "_b" + std::to_string(p.batch_size) +
             "_c" + std::to_string(static_cast<int>(p.conflict_key_fraction * 100));
    });

TEST(Scheduler, TwoRunsProduceIdenticalPerKeyOrders) {
  // Determinism across replicas: same delivery sequence, different thread
  // interleavings, identical per-key write orders.
  util::Xoshiro256 rng(777);
  std::vector<smr::BatchPtr> batches;
  for (std::uint64_t seq = 1; seq <= 400; ++seq) {
    std::vector<smr::Key> keys;
    for (int i = 0; i < 5; ++i) keys.push_back(rng.next_below(30));
    batches.push_back(make_batch(seq, std::move(keys)));
  }
  auto run = [&](unsigned workers) {
    VersionRecorder rec;
    SchedulerOptions cfg;
    cfg.workers = workers;
    Scheduler s(cfg, [&](const smr::Batch& b) { rec.apply(b); });
    s.start();
    for (const auto& b : batches) s.deliver(b);
    s.wait_idle();
    s.stop();
    return rec.take();
  };
  const auto a = run(3);
  const auto b = run(13);
  EXPECT_EQ(a, b);
}

TEST(Scheduler, FinalKvStateMatchesSequentialBaseline) {
  util::Xoshiro256 rng(99);
  std::vector<smr::BatchPtr> batches;
  for (std::uint64_t seq = 1; seq <= 300; ++seq) {
    std::vector<smr::Key> keys;
    for (int i = 0; i < 8; ++i) keys.push_back(rng.next_below(100));
    batches.push_back(make_batch(seq, std::move(keys)));
  }

  kv::KvStore baseline_store;
  kv::KvService baseline(baseline_store);
  for (const auto& b : batches) {
    for (const smr::Command& c : b->commands()) baseline.execute(c);
  }

  kv::KvStore parallel_store;
  kv::KvService service(parallel_store);
  SchedulerOptions cfg;
  cfg.workers = 8;
  Scheduler s(cfg, [&](const smr::Batch& b) {
    for (const smr::Command& c : b.commands()) service.execute(c);
  });
  s.start();
  for (const auto& b : batches) s.deliver(b);
  s.wait_idle();
  s.stop();

  EXPECT_EQ(parallel_store.snapshot(), baseline_store.snapshot());
  EXPECT_EQ(parallel_store.digest(), baseline_store.digest());
}

TEST(Scheduler, QueueWaitStatsReflectBlocking) {
  // Conflicting batches wait behind one another: queue-wait p99 must be
  // much larger than for an equally-sized independent workload.
  auto run = [](bool conflicting) {
    SchedulerOptions cfg;
    cfg.workers = 4;
    Scheduler s(cfg, [](const smr::Batch&) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    });
    s.start();
    for (std::uint64_t i = 1; i <= 100; ++i) {
      s.deliver(make_batch(i, {conflicting ? 7 : i}));
    }
    s.wait_idle();
    const auto st = s.stats();
    s.stop();
    return st;
  };
  const auto serial = run(true);
  const auto parallel = run(false);
  // Serial: the median batch waits ~half the fully-serialized run.
  // Parallel: ~1/workers of that. (The p99 tails converge on a time-shared
  // single CPU — the LAST independent batch also waits for a worker — so
  // the median carries the signal.)
  const auto serial_wait = serial.histogram("scheduler.queue_wait_ns");
  const auto parallel_wait = parallel.histogram("scheduler.queue_wait_ns");
  EXPECT_GT(serial_wait.p50, parallel_wait.p50 * 3 / 2);
  EXPECT_GE(serial_wait.p99, serial_wait.p50);
  EXPECT_GT(parallel_wait.p50, 0u);
}

TEST(Scheduler, ReadOnlyBatchesOnSameKeyRunConcurrentlyInKeyMode) {
  // Exact detection knows reads do not conflict: read-only batches on one
  // key parallelize. (The unified bitmap cannot tell — next test.)
  std::atomic<int> concurrent{0}, max_concurrent{0};
  SchedulerOptions cfg;
  cfg.workers = 8;
  cfg.mode = ConflictMode::kKeysNested;
  Scheduler s(cfg, [&](const smr::Batch&) {
    const int now = concurrent.fetch_add(1) + 1;
    int expected = max_concurrent.load();
    while (now > expected && !max_concurrent.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    concurrent.fetch_sub(1);
  });
  s.start();
  for (std::uint64_t i = 1; i <= 32; ++i) {
    std::vector<smr::Command> cmds(3);
    for (auto& c : cmds) {
      c.type = smr::OpType::kRead;
      c.key = 42;  // every batch reads the same key
    }
    auto b = std::make_shared<smr::Batch>(std::move(cmds));
    b->set_sequence(i);
    s.deliver(std::move(b));
  }
  s.wait_idle();
  s.stop();
  EXPECT_GT(max_concurrent.load(), 2);
}

TEST(Scheduler, ReadOnlyBatchesSerializeUnderUnifiedBitmap) {
  // The paper's unified digest treats every key as written: read-only
  // overlap falsely serializes (safe, slower) — concurrency stays at 1.
  std::atomic<int> concurrent{0}, max_concurrent{0};
  smr::BitmapConfig bcfg;
  bcfg.bits = 102400;
  SchedulerOptions cfg;
  cfg.workers = 8;
  cfg.mode = ConflictMode::kBitmap;
  Scheduler s(cfg, [&](const smr::Batch&) {
    const int now = concurrent.fetch_add(1) + 1;
    int expected = max_concurrent.load();
    while (now > expected && !max_concurrent.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    concurrent.fetch_sub(1);
  });
  s.start();
  for (std::uint64_t i = 1; i <= 16; ++i) {
    std::vector<smr::Command> cmds(1);
    cmds[0].type = smr::OpType::kRead;
    cmds[0].key = 42;
    auto b = std::make_shared<smr::Batch>(std::move(cmds));
    b->set_sequence(i);
    b->build_bitmap(bcfg);
    s.deliver(std::move(b));
  }
  s.wait_idle();
  s.stop();
  EXPECT_EQ(max_concurrent.load(), 1);
}

TEST(Scheduler, BackpressuredDeliverReturnsFalseOnStop) {
  // A delivery thread parked on the backpressure gate must not hang across
  // stop(): it wakes, observes stopping_, and reports the rejected batch.
  std::atomic<bool> release{false};
  SchedulerOptions cfg;
  cfg.workers = 1;
  cfg.max_pending_batches = 2;
  Scheduler s(cfg, [&](const smr::Batch&) {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::microseconds(50));
  });
  s.start();
  // Batch 1 is taken by the (blocked) worker but still occupies the graph;
  // batch 2 fills it to the backpressure bound of 2.
  ASSERT_TRUE(s.deliver(make_batch(1, {1})));
  ASSERT_TRUE(s.deliver(make_batch(2, {2})));
  std::atomic<int> result{-1};
  std::thread delivery([&] { result.store(s.deliver(make_batch(3, {3})) ? 1 : 0); });
  // Give the delivery thread time to park on the gate, then stop.
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(result.load(), -1);
  std::thread stopper([&] {
    std::this_thread::sleep_for(20ms);
    release.store(true);  // let the drain finish so stop() can join
  });
  s.stop();
  delivery.join();
  stopper.join();
  EXPECT_EQ(result.load(), 0);
}

TEST(Scheduler, ThrowingExecutorIsIsolatedAndDependentsRun) {
  // Worker fault isolation: a throwing executor fails ONE batch; the worker
  // survives, dependents of the failed batch are not orphaned, wait_idle()
  // returns, and the failure is visible in stats and the on_failure hook.
  std::atomic<std::uint64_t> executed{0};
  SchedulerOptions cfg;
  cfg.workers = 2;
  Scheduler s(cfg, [&](const smr::Batch& b) {
    if (b.sequence() == 1) throw std::runtime_error("poisoned batch");
    executed.fetch_add(b.size());
  });
  std::atomic<int> failures_seen{0};
  std::string failure_msg;
  s.set_on_failure([&](const smr::Batch& b, const std::string& what) {
    EXPECT_EQ(b.sequence(), 1u);
    failure_msg = what;
    failures_seen.fetch_add(1);
  });
  s.start();
  s.deliver(make_batch(1, {7}));      // throws
  s.deliver(make_batch(2, {7}));      // depends on the failed batch
  s.deliver(make_batch(3, {9, 10}));  // independent
  s.wait_idle();  // must return: the failed batch was removed like any other
  const auto st = s.stats();
  EXPECT_EQ(st.counter("scheduler.batches_failed"), 1u);
  // Failure never counts as executed.
  EXPECT_EQ(st.counter("scheduler.batches_executed"), 2u);
  EXPECT_EQ(st.counter("scheduler.commands_executed"), 3u);
  EXPECT_EQ(st.gauge("scheduler.degraded"), 0.0);  // circuit disabled by default
  EXPECT_EQ(failures_seen.load(), 1);
  EXPECT_EQ(failure_msg, "poisoned batch");
  // The worker pool is still alive: more work executes normally.
  s.deliver(make_batch(4, {11}));
  s.wait_idle();
  s.stop();
  EXPECT_EQ(executed.load(), 4u);
  s.check_invariants();
}

TEST(Scheduler, CircuitBreakerDegradesToSequentialMode) {
  // After `circuit_failure_threshold` consecutive failures the scheduler
  // keeps running but takes one batch at a time — a concurrency probe over
  // independent batches must never observe parallelism after the trip.
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  SchedulerOptions cfg;
  cfg.workers = 4;
  cfg.circuit_failure_threshold = 2;
  Scheduler s(cfg, [&](const smr::Batch& b) {
    if (b.sequence() <= 2) throw std::runtime_error("early failure");
    const int cur = concurrent.fetch_add(1) + 1;
    int seen = max_concurrent.load();
    while (cur > seen && !max_concurrent.compare_exchange_weak(seen, cur)) {
    }
    std::this_thread::sleep_for(1ms);
    concurrent.fetch_sub(1);
  });
  s.start();
  // Two conflicting failures (same key → sequential) trip the circuit.
  s.deliver(make_batch(1, {5}));
  s.deliver(make_batch(2, {5}));
  s.wait_idle();
  EXPECT_TRUE(s.degraded());
  // A wave of pairwise-independent batches would normally fan out across
  // all 4 workers; degraded mode pins them to one at a time.
  for (std::uint64_t i = 3; i <= 22; ++i) s.deliver(make_batch(i, {i * 100}));
  s.wait_idle();
  s.stop();
  const auto st = s.stats();
  EXPECT_EQ(st.counter("scheduler.batches_failed"), 2u);
  EXPECT_EQ(st.counter("scheduler.batches_executed"), 20u);
  EXPECT_EQ(st.gauge("scheduler.degraded"), 1.0);
  EXPECT_EQ(max_concurrent.load(), 1);
}

TEST(Scheduler, CircuitRecoveryRestoresParallelism) {
  // ISSUE 5 regression: `degraded_` used to be one-way — once tripped the
  // scheduler stayed single-flight forever. With a recovery threshold the
  // circuit half-opens, and after recovery a wave of independent batches
  // must fan out across workers again (and the recovery wake must release
  // ALL sleeping workers, not just one).
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  SchedulerOptions cfg;
  cfg.workers = 4;
  cfg.circuit_failure_threshold = 2;
  cfg.circuit_recovery_threshold = 2;
  Scheduler s(cfg, [&](const smr::Batch& b) {
    if (b.sequence() <= 2) throw std::runtime_error("early failure");
    const int cur = concurrent.fetch_add(1) + 1;
    int seen = max_concurrent.load();
    while (cur > seen && !max_concurrent.compare_exchange_weak(seen, cur)) {
    }
    std::this_thread::sleep_for(2ms);
    concurrent.fetch_sub(1);
  });
  s.start();
  s.deliver(make_batch(1, {5}));
  s.deliver(make_batch(2, {5}));
  s.wait_idle();
  EXPECT_TRUE(s.degraded());
  // Two probation successes close the circuit again.
  s.deliver(make_batch(3, {300}));
  s.deliver(make_batch(4, {301}));
  s.wait_idle();
  EXPECT_FALSE(s.degraded());
  max_concurrent.store(0);
  // Post-recovery: independent batches parallelize like a fresh scheduler.
  for (std::uint64_t i = 5; i <= 36; ++i) s.deliver(make_batch(i, {i * 100}));
  s.wait_idle();
  s.stop();
  const auto st = s.stats();
  EXPECT_EQ(st.counter("scheduler.circuit.trips"), 1u);
  EXPECT_EQ(st.counter("scheduler.circuit.recoveries"), 1u);
  EXPECT_EQ(st.gauge("scheduler.degraded"), 0.0);
  EXPECT_GT(max_concurrent.load(), 1);
  s.check_invariants();
}

TEST(Scheduler, StatsReportGraphAndConflicts) {
  // Hold the worker on the first batch so the remaining deliveries are
  // guaranteed to find a non-empty graph (otherwise a fast worker can drain
  // each batch before the next insert and no conflict test ever runs).
  std::atomic<bool> release{false};
  SchedulerOptions cfg;
  cfg.workers = 1;
  Scheduler s(cfg, [&](const smr::Batch&) {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::microseconds(20));
  });
  s.start();
  for (std::uint64_t i = 1; i <= 10; ++i) s.deliver(make_batch(i, {7}));
  release.store(true);
  s.wait_idle();
  const auto st = s.stats();
  EXPECT_EQ(st.counter("scheduler.batches_delivered"), 10u);
  EXPECT_GT(st.counter("scheduler.insert.pair_tests"), 0u);
  EXPECT_GT(st.counter("scheduler.insert.conflicts_found"), 0u);
  EXPECT_GT(st.histogram("scheduler.queue_wait_ns").p99, 0u);
  s.stop();
}

TEST(Scheduler, QueueWaitRecordedExactlyOncePerTake) {
  // Regression: the queue-wait histogram must record exactly one sample per
  // batch TAKEN from the graph — never a second sample when the executor
  // fails, and never zero for batches that do execute. Invariant:
  //   histogram.count == batches_executed + batches_failed.
  SchedulerOptions cfg;
  cfg.workers = 4;
  Scheduler s(cfg, [&](const smr::Batch& b) {
    if (b.sequence() % 3 == 0) throw std::runtime_error("fail every third");
  });
  s.set_on_failure([](const smr::Batch&, const std::string&) {});
  s.start();
  // Mix of conflicting (same key) and independent batches so samples come
  // from both the fast path and the blocked path.
  for (std::uint64_t i = 1; i <= 90; ++i) {
    s.deliver(make_batch(i, {i % 5 == 0 ? 7 : i * 100}));
  }
  s.wait_idle();
  const auto st = s.stats();
  const auto executed = st.counter("scheduler.batches_executed");
  const auto failed = st.counter("scheduler.batches_failed");
  EXPECT_EQ(executed, 60u);
  EXPECT_EQ(failed, 30u);
  EXPECT_EQ(st.histogram("scheduler.queue_wait_ns").count, executed + failed);
  // A second snapshot must not re-record anything.
  const auto st2 = s.stats();
  EXPECT_EQ(st2.histogram("scheduler.queue_wait_ns").count, executed + failed);
  s.stop();
}

// ------------------------------------------------- engine contract --

struct KeyOrderRecorder {
  std::mutex mu;
  std::map<smr::Key, std::vector<smr::Value>> versions;
  void apply(const smr::Batch& b) {
    std::lock_guard lk(mu);
    for (const smr::Command& c : b.commands()) versions[c.key].push_back(c.value);
  }
  std::map<smr::Key, std::vector<smr::Value>> take() {
    std::lock_guard lk(mu);
    return versions;
  }
};

// The contract any threaded engine must meet: per-key ordering, drain and
// stop, concurrency for independent batches, backpressure, and failure
// isolation with the circuit breaker. A typed suite, so that an engine
// trialled later meets the same contract by joining the type list.
template <typename S>
class AnySchedulerTest : public ::testing::Test {};

using SchedulerTypes = ::testing::Types<Scheduler>;
TYPED_TEST_SUITE(AnySchedulerTest, SchedulerTypes);

TYPED_TEST(AnySchedulerTest, ExecutesEverything) {
  std::atomic<std::uint64_t> commands{0};
  SchedulerOptions cfg;
  cfg.workers = 4;
  TypeParam s(cfg, [&](const smr::Batch& b) { commands.fetch_add(b.size()); });
  s.start();
  for (std::uint64_t i = 1; i <= 200; ++i) {
    EXPECT_TRUE(s.deliver(make_batch(i, {i * 7, i * 7 + 1, i * 7 + 2})));
  }
  s.wait_idle();
  s.stop();
  EXPECT_EQ(commands.load(), 600u);
  const auto st = s.stats();
  EXPECT_EQ(st.counter("scheduler.commands_executed"), 600u);
  EXPECT_EQ(st.counter("scheduler.batches_executed"), 200u);
}

TYPED_TEST(AnySchedulerTest, SameKeyBatchesSerializeInDeliveryOrder) {
  std::mutex mu;
  std::vector<std::uint64_t> order;
  SchedulerOptions cfg;
  cfg.workers = 8;
  TypeParam s(cfg, [&](const smr::Batch& b) {
    std::lock_guard lk(mu);
    order.push_back(b.sequence());
  });
  s.start();
  for (std::uint64_t i = 1; i <= 150; ++i) s.deliver(make_batch(i, {99}));
  s.wait_idle();
  s.stop();
  ASSERT_EQ(order.size(), 150u);
  for (std::uint64_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i + 1);
}

TYPED_TEST(AnySchedulerTest, IndependentBatchesParallelize) {
  std::atomic<int> concurrent{0}, max_concurrent{0};
  SchedulerOptions cfg;
  cfg.workers = 8;
  TypeParam s(cfg, [&](const smr::Batch&) {
    const int now = concurrent.fetch_add(1) + 1;
    int expected = max_concurrent.load();
    while (now > expected && !max_concurrent.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    concurrent.fetch_sub(1);
  });
  s.start();
  for (std::uint64_t i = 1; i <= 48; ++i) s.deliver(make_batch(i, {i}));
  s.wait_idle();
  s.stop();
  EXPECT_GT(max_concurrent.load(), 2);
}

TYPED_TEST(AnySchedulerTest, StopDrains) {
  std::atomic<std::uint64_t> executed{0};
  SchedulerOptions cfg;
  cfg.workers = 2;
  TypeParam s(cfg, [&](const smr::Batch&) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    executed.fetch_add(1);
  });
  s.start();
  for (std::uint64_t i = 1; i <= 40; ++i) s.deliver(make_batch(i, {i}));
  s.stop();
  EXPECT_EQ(executed.load(), 40u);
  EXPECT_FALSE(s.deliver(make_batch(41, {41})));
}

TYPED_TEST(AnySchedulerTest, PerKeyOrderMatchesOracleUnderMixedConflicts) {
  util::Xoshiro256 rng(4242);
  smr::BitmapConfig bcfg;
  bcfg.bits = 102400;
  std::vector<smr::BatchPtr> batches;
  std::uint64_t fresh = 1 << 20;
  for (std::uint64_t seq = 1; seq <= 400; ++seq) {
    std::vector<smr::Key> keys;
    for (int i = 0; i < 8; ++i) {
      keys.push_back(rng.next_bool(0.4) ? rng.next_below(25) : fresh++);
    }
    batches.push_back(make_batch(seq, std::move(keys), &bcfg));
  }
  KeyOrderRecorder oracle;
  for (const auto& b : batches) oracle.apply(*b);

  for (ConflictMode mode : {ConflictMode::kKeysNested, ConflictMode::kBitmap}) {
    KeyOrderRecorder rec;
    SchedulerOptions cfg;
    cfg.workers = 8;
    cfg.mode = mode;
    TypeParam s(cfg, [&](const smr::Batch& b) { rec.apply(b); });
    s.start();
    for (const auto& b : batches) s.deliver(b);
    s.wait_idle();
    s.stop();
    EXPECT_EQ(rec.take(), oracle.take()) << to_string(mode);
  }
}

TYPED_TEST(AnySchedulerTest, BackpressureBlocksProducer) {
  SchedulerOptions cfg;
  cfg.workers = 1;
  cfg.max_pending_batches = 4;
  std::atomic<bool> release{false};
  TypeParam s(cfg, [&](const smr::Batch&) {
    while (!release.load()) std::this_thread::sleep_for(std::chrono::microseconds(50));
  });
  s.start();
  std::atomic<int> delivered{0};
  std::thread feeder([&] {
    for (std::uint64_t i = 1; i <= 20; ++i) {
      s.deliver(make_batch(i, {i}));
      delivered.fetch_add(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LE(delivered.load(), 6);  // bounded well below 20
  release.store(true);
  feeder.join();
  s.wait_idle();
  s.stop();
}

TYPED_TEST(AnySchedulerTest, FailureIsolationParity) {
  // A throwing executor is isolated: the batch counts as failed (never executed), dependents still run,
  // on_failure fires once, and the worker survives.
  std::atomic<std::uint64_t> executed{0};
  SchedulerOptions cfg;
  cfg.workers = 2;
  TypeParam s(cfg, [&](const smr::Batch& b) {
    if (b.sequence() == 1) throw std::runtime_error("poisoned batch");
    executed.fetch_add(b.size());
  });
  std::atomic<int> failures_seen{0};
  std::mutex msg_mu;
  std::string failure_msg;
  s.set_on_failure([&](const smr::Batch& b, const std::string& what) {
    EXPECT_EQ(b.sequence(), 1u);
    std::lock_guard lk(msg_mu);
    failure_msg = what;
    failures_seen.fetch_add(1);
  });
  s.start();
  s.deliver(make_batch(1, {7}));      // throws
  s.deliver(make_batch(2, {7}));      // depends on the failed batch
  s.deliver(make_batch(3, {9, 10}));  // independent
  s.wait_idle();
  s.stop();
  const auto st = s.stats();
  EXPECT_EQ(st.counter("scheduler.batches_failed"), 1u);
  EXPECT_EQ(st.counter("scheduler.batches_executed"), 2u);
  EXPECT_EQ(st.counter("scheduler.commands_executed"), 3u);
  EXPECT_EQ(executed.load(), 3u);
  EXPECT_EQ(failures_seen.load(), 1);
  EXPECT_EQ(failure_msg, "poisoned batch");
  EXPECT_FALSE(s.degraded());  // circuit disabled by default
}

TYPED_TEST(AnySchedulerTest, CircuitTripsHalfOpensRecoversAndReTrips) {
  // The full circuit-breaker lifecycle: trip after 2 consecutive failures, probation of 3 consecutive
  // successes — reset by an intervening failure — then recovery, then a
  // re-trip. Failing sequences share a key so their order (and therefore
  // the consecutive-failure count) is deterministic.
  SchedulerOptions cfg;
  cfg.workers = 4;
  cfg.circuit_failure_threshold = 2;
  cfg.circuit_recovery_threshold = 3;
  TypeParam s(cfg, [](const smr::Batch& b) {
    const std::uint64_t seq = b.sequence();
    if (seq == 1 || seq == 2 || seq == 5 || seq == 13 || seq == 14) {
      throw std::runtime_error("scripted failure");
    }
  });
  s.start();
  s.deliver(make_batch(1, {5}));
  s.deliver(make_batch(2, {5}));
  s.wait_idle();
  EXPECT_TRUE(s.degraded());  // tripped
  {
    const auto st = s.stats();
    EXPECT_EQ(st.counter("scheduler.circuit.trips"), 1u);
    EXPECT_EQ(st.gauge("scheduler.degraded"), 1.0);
  }
  // Two successes: probation (3 needed) not yet complete.
  s.deliver(make_batch(3, {100}));
  s.deliver(make_batch(4, {101}));
  s.wait_idle();
  EXPECT_TRUE(s.degraded());
  // A failure during probation resets the consecutive-success count.
  s.deliver(make_batch(5, {102}));
  s.wait_idle();
  EXPECT_TRUE(s.degraded());
  // Three consecutive successes close the circuit (half-open -> closed).
  s.deliver(make_batch(6, {103}));
  s.deliver(make_batch(7, {104}));
  s.deliver(make_batch(8, {105}));
  s.wait_idle();
  EXPECT_FALSE(s.degraded());
  {
    const auto st = s.stats();
    EXPECT_EQ(st.counter("scheduler.circuit.recoveries"), 1u);
    EXPECT_EQ(st.gauge("scheduler.degraded"), 0.0);
  }
  // Fresh consecutive failures re-trip it.
  s.deliver(make_batch(13, {200}));
  s.deliver(make_batch(14, {200}));
  s.wait_idle();
  EXPECT_TRUE(s.degraded());
  const auto st = s.stats();
  EXPECT_EQ(st.counter("scheduler.circuit.trips"), 2u);
  EXPECT_EQ(st.gauge("scheduler.degraded"), 1.0);
  EXPECT_EQ(st.counter("scheduler.batches_failed"), 5u);
  EXPECT_EQ(st.counter("scheduler.batches_executed"), 5u);
  s.stop();
}

}  // namespace
}  // namespace psmr::core
