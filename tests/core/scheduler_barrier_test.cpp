// Quiesce-at-sequence barrier (DESIGN.md §12) of the Scheduler:
// drain_to_sequence(S) must return with EXACTLY the delivered
// prefix <= S executed, hold back everything newer (including batches
// delivered while armed — ingest keeps flowing), and release_barrier must
// resume the held-back suffix without losing or reordering work.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <set>
#include <vector>

#include "core/scheduler.hpp"

namespace psmr::core {
namespace {

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

SchedulerOptions base_options(unsigned workers) {
  SchedulerOptions cfg;
  cfg.workers = workers;
  return cfg;
}

// Deliver 1..10, drain at 10, deliver 11..20 while armed,
// verify the executed set is exactly {1..10}, release, verify {1..20}.
TEST(SchedulerBarrier, HoldsSuffixMonitor) {
  const SchedulerOptions cfg = base_options(4);
  std::mutex mu;
  std::set<std::uint64_t> executed;
  Scheduler s(cfg, [&](const smr::Batch& b) {
    std::lock_guard lk(mu);
    executed.insert(b.sequence());
  });
  s.start();
  for (std::uint64_t seq = 1; seq <= 10; ++seq) {
    // Key 42 everywhere: a fully serial dependency chain, so the barrier
    // must wait through real graph dependencies, not just queue depth.
    ASSERT_TRUE(s.deliver(make_batch(seq, {42, 100 + seq})));
  }
  s.drain_to_sequence(10);
  {
    std::lock_guard lk(mu);
    ASSERT_EQ(executed.size(), 10u);
    EXPECT_EQ(*executed.begin(), 1u);
    EXPECT_EQ(*executed.rbegin(), 10u);
  }
  // Ingest continues while armed; nothing newer may execute.
  for (std::uint64_t seq = 11; seq <= 20; ++seq) {
    ASSERT_TRUE(s.deliver(make_batch(seq, {42, 100 + seq})));
  }
  {
    std::lock_guard lk(mu);
    EXPECT_EQ(executed.size(), 10u) << "armed barrier leaked a post-S batch";
  }
  s.release_barrier();
  s.wait_idle();
  {
    std::lock_guard lk(mu);
    EXPECT_EQ(executed.size(), 20u);
    EXPECT_EQ(*executed.rbegin(), 20u);
  }
  s.stop();
}

// Drain on an already-executed prefix must return immediately (the
// trigger sequence may have finished before the barrier armed).
TEST(SchedulerBarrier, AlreadyQuiescedMonitor) {
  const SchedulerOptions cfg = base_options(2);
  std::mutex mu;
  std::set<std::uint64_t> executed;
  Scheduler s(cfg, [&](const smr::Batch& b) {
    std::lock_guard lk(mu);
    executed.insert(b.sequence());
  });
  s.start();
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(s.deliver(make_batch(seq, {seq})));
  }
  s.wait_idle();
  s.drain_to_sequence(5);  // nothing resident <= 5: must not block
  s.release_barrier();
  s.wait_idle();
  {
    std::lock_guard lk(mu);
    EXPECT_EQ(executed.size(), 5u);
  }
  s.stop();
}

// Back-to-back barriers — the steady-state checkpoint cadence.
TEST(SchedulerBarrier, RepeatedBarriersMonitor) {
  const SchedulerOptions cfg = base_options(4);
  std::mutex mu;
  std::set<std::uint64_t> executed;
  Scheduler s(cfg, [&](const smr::Batch& b) {
    std::lock_guard lk(mu);
    executed.insert(b.sequence());
  });
  s.start();
  std::uint64_t seq = 0;
  for (int round = 1; round <= 5; ++round) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(s.deliver(make_batch(++seq, {7, 200 + seq})));
    }
    s.drain_to_sequence(seq);
    {
      std::lock_guard lk(mu);
      EXPECT_EQ(executed.size(), seq) << "round " << round;
    }
    s.release_barrier();
  }
  s.wait_idle();
  s.stop();
  std::lock_guard lk(mu);
  EXPECT_EQ(executed.size(), 40u);
}

TEST(SchedulerBarrier, BarrierMetricCounts) {
  SchedulerOptions cfg = base_options(2);
  Scheduler s(cfg, [](const smr::Batch&) {});
  s.start();
  ASSERT_TRUE(s.deliver(make_batch(1, {1})));
  s.drain_to_sequence(1);
  s.release_barrier();
  EXPECT_EQ(s.stats().counter("scheduler.barriers"), 1u);
  s.stop();
}

}  // namespace
}  // namespace psmr::core
