// The pipelined and early schedulers must be behaviourally
// indistinguishable from the monitor scheduler: same per-key ordering
// guarantees, same drain/stop semantics, same concurrency for independent
// batches, and the same failure isolation and circuit breaker (one
// CircuitBreaker serves all three). Shared tests run against every
// implementation via typed tests, plus a cross-implementation equivalence
// check.
#include "core/pipelined_scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/early_scheduler.hpp"
#include "core/scheduler.hpp"
#include "util/rng.hpp"

namespace psmr::core {
namespace {

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

template <typename S>
class AnySchedulerTest : public ::testing::Test {};

using SchedulerTypes = ::testing::Types<Scheduler, PipelinedScheduler, EarlyScheduler>;
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
  // Every scheduler variant must isolate a throwing executor identically:
  // the batch counts as failed (never executed), dependents still run,
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
  // The full circuit-breaker lifecycle (ISSUE 5 regression: `degraded_` was
  // one-way): trip after 2 consecutive failures, probation of 3 consecutive
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

TEST(PipelinedVsMonitor, IdenticalPerKeyOrders) {
  // Cross-implementation determinism: same delivery sequence, same conflict
  // mode => bit-identical per-key write orders.
  util::Xoshiro256 rng(31337);
  std::vector<smr::BatchPtr> batches;
  for (std::uint64_t seq = 1; seq <= 500; ++seq) {
    std::vector<smr::Key> keys;
    for (int i = 0; i < 4; ++i) keys.push_back(rng.next_below(40));
    batches.push_back(make_batch(seq, std::move(keys)));
  }
  KeyOrderRecorder monitor_rec;
  {
    SchedulerOptions cfg;
    cfg.workers = 8;
    Scheduler s(cfg, [&](const smr::Batch& b) { monitor_rec.apply(b); });
    s.start();
    for (const auto& b : batches) s.deliver(b);
    s.wait_idle();
    s.stop();
  }
  KeyOrderRecorder pipelined_rec;
  {
    SchedulerOptions cfg;
    cfg.workers = 8;
    PipelinedScheduler s(cfg, [&](const smr::Batch& b) { pipelined_rec.apply(b); });
    s.start();
    for (const auto& b : batches) s.deliver(b);
    s.wait_idle();
    s.stop();
  }
  EXPECT_EQ(monitor_rec.take(), pipelined_rec.take());
}

}  // namespace
}  // namespace psmr::core
