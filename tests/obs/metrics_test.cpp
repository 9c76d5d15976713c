// MetricsRegistry / Snapshot unit + concurrency tests (DESIGN.md §10).
//
// The load-bearing property is snapshot monotonicity: counters are
// per-thread sharded relaxed atomics, and an observer that snapshots while
// writers are mid-flight must still see totals that never decrease across
// successive reads.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace psmr::obs {
namespace {

TEST(Counter, ConcurrentAddsSumExactly) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test.adds");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kAddsPerThread);
  EXPECT_EQ(reg.snapshot().counter("test.adds"), kThreads * kAddsPerThread);
}

TEST(Counter, SnapshotTotalsAreMonotonicUnderConcurrentWrites) {
  // N writers bump two counters; one reader snapshots in a loop. Every
  // successive snapshot must observe totals >= the previous one — the
  // sharded cells only grow and are read in a fixed order.
  MetricsRegistry reg;
  Counter& a = reg.counter("mono.a");
  Counter& b = reg.counter("mono.b");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 6; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        a.add(1);
        b.add(3);
      }
    });
  }
  std::uint64_t prev_a = 0;
  std::uint64_t prev_b = 0;
  for (int i = 0; i < 2000; ++i) {
    const Snapshot st = reg.snapshot();
    const std::uint64_t cur_a = st.counter("mono.a");
    const std::uint64_t cur_b = st.counter("mono.b");
    ASSERT_GE(cur_a, prev_a) << "counter total went backwards at read " << i;
    ASSERT_GE(cur_b, prev_b) << "counter total went backwards at read " << i;
    prev_a = cur_a;
    prev_b = cur_b;
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}

TEST(Registry, HandsOutStableReferences) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("stable.counter");
  Gauge& g1 = reg.gauge("stable.gauge");
  HistogramMetric& h1 = reg.histogram("stable.histogram");
  // Registering many more metrics must not invalidate earlier handles.
  for (int i = 0; i < 200; ++i) {
    reg.counter("filler." + std::to_string(i));
  }
  EXPECT_EQ(&reg.counter("stable.counter"), &c1);
  EXPECT_EQ(&reg.gauge("stable.gauge"), &g1);
  EXPECT_EQ(&reg.histogram("stable.histogram"), &h1);
}

TEST(Registry, ConcurrentRegistrationOfTheSameNameYieldsOneCounter) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] { reg.counter("raced.name").add(1); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.snapshot().counter("raced.name"), static_cast<std::uint64_t>(kThreads));
}

TEST(Gauge, LastWriteWinsAndRoundTripsDoubles) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("g");
  g.set(1.5);
  EXPECT_EQ(g.value(), 1.5);
  g.set(-0.25);
  EXPECT_EQ(g.value(), -0.25);
  EXPECT_EQ(reg.snapshot().gauge("g"), -0.25);
}

TEST(HistogramMetric, StripedRecordsMergeToFullCount) {
  MetricsRegistry reg;
  HistogramMetric& h = reg.histogram("lat");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kRecords = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kRecords; ++i) {
        h.record(static_cast<std::uint64_t>(t) * 1000 + (i % 100));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.merged().count(), kThreads * kRecords);
  EXPECT_EQ(reg.snapshot().histogram("lat").count, kThreads * kRecords);
}

TEST(Snapshot, MissingNamesReadAsZero) {
  const Snapshot st;
  EXPECT_EQ(st.counter("no.such.counter"), 0u);
  EXPECT_EQ(st.gauge("no.such.gauge"), 0.0);
  EXPECT_EQ(st.histogram("no.such.histogram").count, 0u);
  EXPECT_FALSE(st.has_counter("no.such.counter"));
}

TEST(Snapshot, MergePrependsPrefix) {
  Snapshot a;
  a.set_counter("x", 1);
  Snapshot b;
  b.set_counter("x", 2);
  b.set_gauge("y", 3.0);
  a.merge(b, "replica_b.");
  EXPECT_EQ(a.counter("x"), 1u);
  EXPECT_EQ(a.counter("replica_b.x"), 2u);
  EXPECT_EQ(a.gauge("replica_b.y"), 3.0);
}

TEST(Snapshot, CounterSumAddsAcrossMergePrefixes) {
  // counter_sum: totals one logical counter across merged per-component
  // snapshots (e.g. fallback.scheduler.x, an embedded engine's registry
  // merged under a prefix, + the top-level scheduler.x).
  Snapshot top;
  top.set_counter("scheduler.batches_executed", 10);
  Snapshot s0;
  s0.set_counter("scheduler.batches_executed", 4);
  s0.set_counter("scheduler.batches_failed", 1);
  Snapshot s1;
  s1.set_counter("scheduler.batches_executed", 6);
  top.merge(s0, "part.0.");
  top.merge(s1, "part.1.");
  EXPECT_EQ(top.counter_sum("scheduler.batches_executed"), 20u);
  EXPECT_EQ(top.counter_sum("scheduler.batches_failed"), 1u);
  EXPECT_EQ(top.counter_sum("no.such.counter"), 0u);
  // Any trailing fragment works as a suffix, not just full metric names.
  EXPECT_EQ(top.counter_sum("batches_executed"), 20u);
}

TEST(Snapshot, ToJsonCarriesSchemaAndEveryMetricKind) {
  MetricsRegistry reg;
  reg.counter("scheduler.batches_executed").add(42);
  reg.gauge("graph.resident_batches").set(7.0);
  reg.histogram("scheduler.queue_wait_ns").record(1000);
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"schema\": \"psmr.metrics.v1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"scheduler.batches_executed\": 42"), std::string::npos) << json;
  EXPECT_NE(json.find("graph.resident_batches"), std::string::npos) << json;
  EXPECT_NE(json.find("\"scheduler.queue_wait_ns\": {\"count\": "), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"p99\": "), std::string::npos) << json;
}

}  // namespace
}  // namespace psmr::obs
