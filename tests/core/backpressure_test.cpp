// Bounded, watermark-instrumented delivery queues (DESIGN.md §14) across
// all four scheduler variants: every variant must honour the three
// BackpressureMode policies on a full queue — block forever, block with a
// deadline then report failure, or reject to the caller — and publish the
// backpressure.* metric family while doing it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/early_scheduler.hpp"
#include "core/pipelined_scheduler.hpp"
#include "core/scheduler.hpp"
#include "core/sharded_scheduler.hpp"

namespace psmr::core {
namespace {

using namespace std::chrono_literals;

smr::BatchPtr make_batch(std::uint64_t seq, std::vector<smr::Key> keys) {
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
  return b;
}

/// Executor that parks every worker until released — the deterministic way
/// to hold a delivery queue at capacity.
struct GatedExecutor {
  std::atomic<bool> release{false};
  std::atomic<std::uint64_t> executed{0};

  Scheduler::Executor fn() {
    return [this](const smr::Batch&) {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(1ms);
      }
      executed.fetch_add(1, std::memory_order_relaxed);
    };
  }
};

// ---------------------------------------------------------------- monitor

TEST(Backpressure, MonitorRejectsWhenFull) {
  GatedExecutor gate;
  SchedulerOptions cfg;
  cfg.workers = 2;
  cfg.max_pending_batches = 4;
  cfg.backpressure = BackpressureMode::kReject;
  Scheduler s(cfg, gate.fn());
  s.start();
  for (std::uint64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(s.deliver(make_batch(i, {i})));
  }
  EXPECT_FALSE(s.deliver(make_batch(5, {5})));  // full: rejected, not queued
  EXPECT_FALSE(s.deliver(make_batch(5, {5})));  // caller may re-offer later

  gate.release.store(true);
  s.wait_idle();
  EXPECT_TRUE(s.deliver(make_batch(5, {5})));  // space again after drain
  s.wait_idle();
  EXPECT_EQ(gate.executed.load(), 5u);

  const auto st = s.stats();
  EXPECT_EQ(st.counter("backpressure.rejects"), 2u);
  EXPECT_EQ(st.counter("scheduler.batches_executed"), 5u);
  s.stop();
}

TEST(Backpressure, MonitorBlockWithDeadlineExpires) {
  GatedExecutor gate;
  SchedulerOptions cfg;
  cfg.workers = 1;
  cfg.max_pending_batches = 2;
  cfg.backpressure = BackpressureMode::kBlockWithDeadline;
  cfg.backpressure_deadline = 50ms;
  Scheduler s(cfg, gate.fn());
  s.start();
  ASSERT_TRUE(s.deliver(make_batch(1, {1})));
  ASSERT_TRUE(s.deliver(make_batch(2, {2})));

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(s.deliver(make_batch(3, {3})));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(waited, 45ms);  // actually waited the deadline out

  gate.release.store(true);
  s.wait_idle();
  const auto st = s.stats();
  EXPECT_GE(st.counter("backpressure.deadline_expired"), 1u);
  EXPECT_GE(st.counter("backpressure.waits"), 1u);
  s.stop();
}

TEST(Backpressure, MonitorBlockWaitsForSpace) {
  GatedExecutor gate;
  SchedulerOptions cfg;
  cfg.workers = 1;
  cfg.max_pending_batches = 2;
  cfg.backpressure = BackpressureMode::kBlock;
  Scheduler s(cfg, gate.fn());
  s.start();
  ASSERT_TRUE(s.deliver(make_batch(1, {1})));
  ASSERT_TRUE(s.deliver(make_batch(2, {2})));

  std::atomic<bool> delivered{false};
  std::thread t([&] {
    EXPECT_TRUE(s.deliver(make_batch(3, {3})));
    delivered.store(true);
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(delivered.load());  // blocked on the full queue

  gate.release.store(true);
  t.join();
  EXPECT_TRUE(delivered.load());
  s.wait_idle();
  EXPECT_EQ(gate.executed.load(), 3u);
  const auto st = s.stats();
  EXPECT_GE(st.counter("backpressure.waits"), 1u);
  s.stop();
}

TEST(Backpressure, MonitorWatermarkHysteresis) {
  GatedExecutor gate;
  SchedulerOptions cfg;
  cfg.workers = 1;
  cfg.max_pending_batches = 8;  // high mark 7, low mark 4
  cfg.backpressure = BackpressureMode::kReject;
  Scheduler s(cfg, gate.fn());
  s.start();
  for (std::uint64_t i = 1; i <= 8; ++i) {
    ASSERT_TRUE(s.deliver(make_batch(i, {i})));
  }
  {
    const auto st = s.stats();
    EXPECT_EQ(st.gauge("backpressure.capacity"), 8.0);
    EXPECT_EQ(st.gauge("backpressure.high_watermark"), 7.0);
    EXPECT_EQ(st.gauge("backpressure.low_watermark"), 4.0);
    EXPECT_EQ(st.gauge("backpressure.above_high"), 1.0);
    EXPECT_EQ(st.counter("backpressure.high_watermark_crossings"), 1u);
  }
  gate.release.store(true);
  s.wait_idle();
  {
    const auto st = s.stats();
    EXPECT_EQ(st.gauge("backpressure.above_high"), 0.0);  // drained past low
    EXPECT_EQ(st.gauge("backpressure.queue_depth"), 0.0);
    EXPECT_EQ(st.counter("backpressure.high_watermark_crossings"), 1u);
  }
  s.stop();
}

// -------------------------------------------------------------- pipelined

TEST(Backpressure, PipelinedRejectsWhenFull) {
  GatedExecutor gate;
  SchedulerOptions cfg;
  cfg.workers = 1;
  cfg.max_pending_batches = 3;
  cfg.backpressure = BackpressureMode::kReject;
  PipelinedScheduler s(cfg, gate.fn());
  s.start();
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(s.deliver(make_batch(i, {i})));
  }
  EXPECT_FALSE(s.deliver(make_batch(4, {4})));
  gate.release.store(true);
  s.wait_idle();
  EXPECT_EQ(gate.executed.load(), 3u);
  const auto st = s.stats();
  EXPECT_GE(st.counter("backpressure.rejects"), 1u);
  s.stop();
}

TEST(Backpressure, PipelinedBlockWithDeadlineThenBlockSucceeds) {
  GatedExecutor gate;
  SchedulerOptions cfg;
  cfg.workers = 1;
  cfg.max_pending_batches = 2;
  cfg.backpressure = BackpressureMode::kBlockWithDeadline;
  cfg.backpressure_deadline = 40ms;
  PipelinedScheduler s(cfg, gate.fn());
  s.start();
  ASSERT_TRUE(s.deliver(make_batch(1, {1})));
  ASSERT_TRUE(s.deliver(make_batch(2, {2})));
  EXPECT_FALSE(s.deliver(make_batch(3, {3})));  // deadline expires

  gate.release.store(true);
  EXPECT_TRUE(s.deliver(make_batch(3, {3})));  // drains, then fits
  s.wait_idle();
  EXPECT_EQ(gate.executed.load(), 3u);
  const auto st = s.stats();
  EXPECT_GE(st.counter("backpressure.deadline_expired"), 1u);
  s.stop();
}

// ---------------------------------------------------------------- sharded

TEST(Backpressure, ShardedRejectsOnFullShard) {
  GatedExecutor gate;
  SchedulerOptions cfg;
  cfg.workers = 1;
  cfg.shards = 2;
  cfg.max_pending_batches = 2;  // per shard engine
  cfg.backpressure = BackpressureMode::kReject;
  ShardedScheduler s(cfg, gate.fn());
  s.start();

  std::uint64_t seq = 0;
  std::uint64_t admitted = 0;
  // Distinct keys spread over both shards; with 2-deep engines at most 4
  // single-shard batches fit before SOME deliver is rejected.
  for (std::uint64_t k = 1; k <= 16; ++k) {
    if (s.deliver(make_batch(++seq, {k * 7919}))) ++admitted;
  }
  EXPECT_LT(admitted, 16u);
  EXPECT_LE(admitted, 4u);

  gate.release.store(true);
  s.wait_idle();
  // Exactly the admitted batches executed — a rejected deliver left nothing
  // behind in any shard.
  EXPECT_EQ(gate.executed.load(), admitted);
  // Per-shard meters merge under shard.N.backpressure.*; sum the family.
  const auto st = s.stats();
  EXPECT_GE(st.counter_sum("backpressure.rejects"), 1u);
  s.stop();
}

TEST(Backpressure, ShardedMultiShardRejectLeavesNoOrphanLegs) {
  // Find two keys living in different shards (the batch spanning both gets
  // shard mask 0b11).
  smr::Key key_a = 0, key_b = 0;
  for (smr::Key k = 1; k < 1000 && (key_a == 0 || key_b == 0); ++k) {
    smr::Batch probe({[&] {
      smr::Command c;
      c.type = smr::OpType::kUpdate;
      c.key = k;
      return c;
    }()});
    probe.stamp(smr::PlacementMaps{2, nullptr});
    if (probe.shard_mask() == 0b01 && key_a == 0) key_a = k;
    if (probe.shard_mask() == 0b10 && key_b == 0) key_b = k;
  }
  ASSERT_NE(key_a, 0u);
  ASSERT_NE(key_b, 0u);

  GatedExecutor gate;
  SchedulerOptions cfg;
  cfg.workers = 1;
  cfg.shards = 2;
  cfg.max_pending_batches = 2;
  cfg.backpressure = BackpressureMode::kReject;
  ShardedScheduler s(cfg, gate.fn());
  s.start();

  // Fill shard A to capacity.
  ASSERT_TRUE(s.deliver(make_batch(1, {key_a})));
  ASSERT_TRUE(s.deliver(make_batch(2, {key_a})));
  // A cross-shard batch must be rejected as a WHOLE: shard A is full, so
  // shard B must not receive a gate leg either.
  EXPECT_FALSE(s.deliver(make_batch(3, {key_a, key_b})));
  // Shard B still has its full capacity — and no orphaned rendezvous leg
  // that would wedge these batches forever.
  ASSERT_TRUE(s.deliver(make_batch(4, {key_b})));
  ASSERT_TRUE(s.deliver(make_batch(5, {key_b})));

  gate.release.store(true);
  s.wait_idle();
  EXPECT_EQ(gate.executed.load(), 4u);
  s.stop();
}

// ------------------------------------------------------------------ early

TEST(Backpressure, EarlyRejectsWhenWorkerQueueFull) {
  GatedExecutor gate;
  SchedulerOptions cfg;
  cfg.workers = 2;
  cfg.max_pending_batches = 3;  // per class-worker FIFO depth
  cfg.backpressure = BackpressureMode::kReject;
  EarlyScheduler s(cfg, gate.fn());
  s.start();
  // Same key -> same conflict class -> same worker FIFO.
  std::uint64_t admitted = 0;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    if (s.deliver(make_batch(i, {42}))) ++admitted;
  }
  EXPECT_EQ(admitted, 3u);
  EXPECT_FALSE(s.deliver(make_batch(4, {42})));

  gate.release.store(true);
  s.wait_idle();
  EXPECT_EQ(gate.executed.load(), 3u);
  const auto st = s.stats();
  EXPECT_GE(st.counter("backpressure.rejects"), 1u);
  s.stop();
}

TEST(Backpressure, EarlyBlockWaitsForSpace) {
  GatedExecutor gate;
  SchedulerOptions cfg;
  cfg.workers = 2;
  cfg.max_pending_batches = 2;
  cfg.backpressure = BackpressureMode::kBlock;
  EarlyScheduler s(cfg, gate.fn());
  s.start();
  ASSERT_TRUE(s.deliver(make_batch(1, {42})));
  ASSERT_TRUE(s.deliver(make_batch(2, {42})));

  std::atomic<bool> delivered{false};
  std::thread t([&] {
    EXPECT_TRUE(s.deliver(make_batch(3, {42})));
    delivered.store(true);
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(delivered.load());

  gate.release.store(true);
  t.join();
  EXPECT_TRUE(delivered.load());
  s.wait_idle();
  EXPECT_EQ(gate.executed.load(), 3u);
  const auto st = s.stats();
  EXPECT_GE(st.counter("backpressure.waits"), 1u);
  s.stop();
}

}  // namespace
}  // namespace psmr::core
