// Bounded, watermark-instrumented delivery queues (DESIGN.md §14) across
// all three scheduler variants: deliver() blocks while the queue is full,
// completes once it drains, returns false only once stop() has begun, and
// publishes the backpressure.* metric family while doing it. Cross-
// participant batches (Early) are delivered while one participant is full,
// with their first legs already handed over.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/early_scheduler.hpp"
#include "core/pipelined_scheduler.hpp"
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
/// to hold a delivery queue at capacity. Counts the runs of each batch.
struct GatedExecutor {
  std::atomic<bool> release{false};
  std::atomic<std::uint64_t> executed{0};
  std::mutex mu;
  std::map<std::uint64_t, int> runs_by_seq;

  Scheduler::Executor fn() {
    return [this](const smr::Batch& b) {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(1ms);
      }
      executed.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard lk(mu);
      ++runs_by_seq[b.sequence()];
    };
  }

  int runs(std::uint64_t seq) {
    std::lock_guard lk(mu);
    const auto it = runs_by_seq.find(seq);
    return it == runs_by_seq.end() ? 0 : it->second;
  }
};

/// Waits until `cond` holds or 5 s elapse; returns cond's value.
template <typename F>
bool eventually(F cond) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!cond() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  return cond();
}

/// Runs deliver(batch) on its own thread; result() is -1 while it blocks,
/// then 1 (accepted) or 0 (refused).
class AsyncDeliver {
 public:
  template <typename S>
  AsyncDeliver(S& s, smr::BatchPtr batch)
      : thread_([this, &s, batch = std::move(batch)]() mutable {
          result_.store(s.deliver(std::move(batch)) ? 1 : 0);
        }) {}
  ~AsyncDeliver() { thread_.join(); }

  int result() const { return result_.load(); }

 private:
  std::atomic<int> result_{-1};
  std::thread thread_;
};

// ---------------------------------------------------------------- monitor

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

// -------------------------------------------------------------- pipelined

TEST(Backpressure, PipelinedBlockWaitsForSpace) {
  GatedExecutor gate;
  SchedulerOptions cfg;
  cfg.workers = 1;
  cfg.max_pending_batches = 2;
  PipelinedScheduler s(cfg, gate.fn());
  s.start();
  ASSERT_TRUE(s.deliver(make_batch(1, {1})));
  ASSERT_TRUE(s.deliver(make_batch(2, {2})));
  {
    AsyncDeliver third(s, make_batch(3, {3}));
    std::this_thread::sleep_for(50ms);
    EXPECT_EQ(third.result(), -1);  // blocked on the full pipeline

    gate.release.store(true);
    ASSERT_TRUE(eventually([&] { return third.result() != -1; }));
    EXPECT_EQ(third.result(), 1);  // drains, then fits
  }
  s.wait_idle();
  EXPECT_EQ(gate.executed.load(), 3u);
  EXPECT_GE(s.stats().counter("backpressure.waits"), 1u);
  s.stop();
}

// ------------------------------------------------------------------ early

TEST(Backpressure, EarlyBlockWaitsForSpace) {
  GatedExecutor gate;
  SchedulerOptions cfg;
  cfg.workers = 2;
  cfg.max_pending_batches = 2;
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

/// Two class workers: keys [0, 99] are class 0, [100, 199] class 1, every
/// other key unclassified (the embedded graph engine). FIFOs hold 2.
SchedulerOptions early_two_classes_and_fallback() {
  auto map = std::make_shared<smr::ConflictClassMap>();
  map->add_range(0, 99, 0);
  map->add_range(100, 199, 1);
  SchedulerOptions cfg;
  cfg.workers = 2;
  cfg.max_pending_batches = 2;
  cfg.class_map = std::move(map);
  return cfg;
}

constexpr smr::Key kUnclassifiedKey = smr::Key{1} << 30;

/// Pushes recorded on class worker `w`'s FIFO.
std::uint64_t pushes_to_worker(const EarlyScheduler& s, unsigned w) {
  return s.stats().histogram("early.worker." + std::to_string(w) + ".queue_depth").count;
}

TEST(Backpressure, EarlyMixedBatchBlocksOnFullClassWorker) {
  GatedExecutor gate;
  EarlyScheduler s(early_two_classes_and_fallback(), gate.fn());
  s.start();
  // Fill class worker 1's FIFO to capacity.
  ASSERT_TRUE(s.deliver(make_batch(1, {150})));
  ASSERT_TRUE(s.deliver(make_batch(2, {150})));
  {
    // Classes 0 and 1 plus an unclassified key: worker 0 takes its leg at
    // once, worker 1's leg waits for room, the fallback leg comes last.
    AsyncDeliver mixed(s, make_batch(3, {5, 105, kUnclassifiedKey}));
    ASSERT_TRUE(eventually([&] { return pushes_to_worker(s, 0) == 1; }));
    std::this_thread::sleep_for(50ms);
    EXPECT_EQ(mixed.result(), -1);

    gate.release.store(true);
    ASSERT_TRUE(eventually([&] { return mixed.result() != -1; }));
    EXPECT_EQ(mixed.result(), 1);
  }
  s.wait_idle();
  EXPECT_EQ(gate.runs(1), 1);
  EXPECT_EQ(gate.runs(2), 1);
  EXPECT_EQ(gate.runs(3), 1);  // once, by the gate leader
  const auto st = s.stats();
  EXPECT_EQ(st.counter("early.batches_multi_class"), 1u);
  EXPECT_EQ(st.counter("early.batches_fallback"), 1u);
  EXPECT_GE(st.counter("backpressure.waits"), 1u);
  s.stop();
}

TEST(Backpressure, EarlyStopDuringBlockedMixedDeliver) {
  GatedExecutor gate;
  EarlyScheduler s(early_two_classes_and_fallback(), gate.fn());
  s.start();
  ASSERT_TRUE(s.deliver(make_batch(1, {150})));
  ASSERT_TRUE(s.deliver(make_batch(2, {150})));
  {
    AsyncDeliver mixed(s, make_batch(3, {5, 105, kUnclassifiedKey}));
    ASSERT_TRUE(eventually([&] { return pushes_to_worker(s, 0) == 1; }));
    std::this_thread::sleep_for(20ms);
    ASSERT_EQ(mixed.result(), -1);

    // stop() refuses the blocked leg before anything drains.
    std::thread stopper([&] { s.stop(); });
    EXPECT_TRUE(eventually([&] { return mixed.result() == 0; }));
    gate.release.store(true);  // lets stop() drain and join
    stopper.join();
  }
  // The gate shrank to worker 0, which still ran the batch; the fallback
  // engine never received a leg.
  EXPECT_EQ(gate.runs(1), 1);
  EXPECT_EQ(gate.runs(2), 1);
  EXPECT_EQ(gate.runs(3), 1);
  EXPECT_EQ(s.stats().counter("fallback.scheduler.batches_delivered"), 0u);
  EXPECT_FALSE(s.deliver(make_batch(4, {5})));
}

}  // namespace
}  // namespace psmr::core
