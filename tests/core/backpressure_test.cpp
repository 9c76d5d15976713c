// Bounded, watermark-instrumented delivery queue (DESIGN.md §14) of the
// Scheduler: deliver() blocks while the graph is full, completes once it
// drains, and publishes the backpressure.* metric family while doing it.
// (Scheduler.BackpressuredDeliverReturnsFalseOnStop covers stop().)
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/scheduler.hpp"

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
/// to hold the delivery queue at capacity.
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

TEST(Backpressure, MonitorBlockWaitsForSpace) {
  GatedExecutor gate;
  SchedulerOptions cfg;
  cfg.workers = 1;
  cfg.max_pending_batches = 2;
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

}  // namespace
}  // namespace psmr::core
