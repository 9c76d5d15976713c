#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "consensus/group.hpp"

namespace psmr::consensus {
namespace {

using namespace std::chrono_literals;

Value payload_of(std::uint64_t n) {
  auto v = std::make_shared<std::vector<std::uint8_t>>(sizeof(n));
  std::memcpy(v->data(), &n, sizeof(n));
  return v;
}

std::uint64_t payload_to_u64(const Value& v) {
  std::uint64_t n = 0;
  if (v && v->size() >= sizeof(n)) std::memcpy(&n, v->data(), sizeof(n));
  return n;
}

/// Collects one learner's delivery stream.
struct Sink {
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seq_and_value;

  AtomicBroadcast::DeliverFn fn() {
    return [this](std::uint64_t seq, Value v) {
      std::lock_guard lk(mu);
      seq_and_value.emplace_back(seq, payload_to_u64(v));
    };
  }

  std::size_t size() {
    std::lock_guard lk(mu);
    return seq_and_value.size();
  }

  std::vector<std::pair<std::uint64_t, std::uint64_t>> snapshot() {
    std::lock_guard lk(mu);
    return seq_and_value;
  }
};

/// Waits until `cond` holds or `timeout` elapses; returns cond's value.
template <typename F>
bool eventually(F cond, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return cond();
}

TEST(LocalBroadcast, DeliversInOrderToAllSubscribers) {
  LocalBroadcast lb;
  Sink a, b;
  lb.subscribe(a.fn());
  lb.subscribe(b.fn());
  lb.start();
  for (std::uint64_t i = 1; i <= 100; ++i) lb.broadcast(payload_of(i));
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(a.snapshot(), b.snapshot());
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.snapshot()[i].first, i + 1);
    EXPECT_EQ(a.snapshot()[i].second, i + 1);
  }
}

TEST(LocalBroadcast, AllSubscribersSeeTheSameOrder) {
  // Four threads broadcast concurrently: both subscribers still see one
  // dense order, with every payload exactly once.
  LocalBroadcast lb;
  Sink a, b;
  lb.subscribe(a.fn());
  lb.subscribe(b.fn());
  lb.start();
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < 4; ++t) {
    threads.emplace_back([&lb, t] {
      for (std::uint64_t i = 0; i < 100; ++i) lb.broadcast(payload_of(t * 1000 + i));
    });
  }
  for (auto& t : threads) t.join();
  const auto order = a.snapshot();
  EXPECT_EQ(order, b.snapshot());
  ASSERT_EQ(order.size(), 400u);
  std::set<std::uint64_t> values;
  for (std::uint64_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i].first, i + 1);
    values.insert(order[i].second);
  }
  EXPECT_EQ(values.size(), 400u);
}

TEST(PaxosGroup, DecidesASingleValue) {
  GroupConfig cfg;
  cfg.proposers = 1;
  PaxosGroup group(cfg);
  Sink sink;
  group.subscribe(sink.fn());
  group.start();
  group.broadcast(payload_of(42));
  ASSERT_TRUE(eventually([&] { return sink.size() >= 1; }));
  EXPECT_EQ(sink.snapshot()[0], (std::pair<std::uint64_t, std::uint64_t>{1, 42}));
  group.stop();
}

TEST(PaxosGroup, DeliversTheBroadcastBufferItself) {
  // One payload buffer per ordered value: the learner delivers the very
  // buffer the client handed to broadcast(), through the leader's
  // ClientRequest, Phase 2 and the Decide.
  GroupConfig cfg;
  PaxosGroup group(cfg);
  std::mutex mu;
  std::vector<Value> delivered;
  group.subscribe([&](std::uint64_t, Value v) {
    std::lock_guard lk(mu);
    delivered.push_back(std::move(v));
  });
  group.start();
  const Value v = payload_of(7);
  group.broadcast(v);
  ASSERT_TRUE(eventually([&] {
    std::lock_guard lk(mu);
    return !delivered.empty();
  }));
  std::lock_guard lk(mu);
  EXPECT_EQ(delivered[0].get(), v.get());
  group.stop();
}

TEST(PaxosGroup, StableLeaderOrdersARequestInTenMessages) {
  // A fresh request goes to the leader alone: 1 ClientRequest, 3 Accepts,
  // 3 Accepteds and 3 Decides (learner, standby, client) — no standby copy,
  // no forward back to the leader, no duplicate Decide to the client.
  GroupConfig cfg;
  cfg.proposers = 2;
  PaxosGroup group(cfg);
  Sink sink;
  group.subscribe(sink.fn());
  group.start();
  group.broadcast(payload_of(1));
  ASSERT_TRUE(eventually([&] { return sink.size() >= 1 && group.leader_index() >= 0; }));
  constexpr std::uint64_t kRequests = 400;
  const std::uint64_t before = group.network().messages_delivered();
  for (std::uint64_t i = 2; i <= kRequests + 1; ++i) group.broadcast(payload_of(i));
  ASSERT_TRUE(eventually([&] { return sink.size() >= kRequests + 1; }));
  const double per_request =
      static_cast<double>(group.network().messages_delivered() - before) / kRequests;
  // Heartbeats, learner probes and late Accepteds in flight add a little.
  EXPECT_LE(per_request, 10.5);
  group.stop();
}

TEST(PaxosGroup, TotalOrderUnderConcurrentBroadcasts) {
  GroupConfig cfg;
  PaxosGroup group(cfg);
  Sink sink;
  group.subscribe(sink.fn());
  group.start();
  constexpr std::uint64_t kPerThread = 50;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        group.broadcast(payload_of(static_cast<std::uint64_t>(t) * kPerThread + i + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_TRUE(eventually([&] { return sink.size() >= kThreads * kPerThread; }, 10000ms));
  const auto got = sink.snapshot();
  ASSERT_EQ(got.size(), kThreads * kPerThread);
  std::set<std::uint64_t> values;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, i + 1);  // gap-free sequence
    values.insert(got[i].second);
  }
  EXPECT_EQ(values.size(), kThreads * kPerThread);  // every value exactly once
  group.stop();
}

TEST(PaxosGroup, AllLearnersSeeTheSameSequence) {
  GroupConfig cfg;
  PaxosGroup group(cfg);
  Sink a, b, c;
  group.subscribe(a.fn());
  group.subscribe(b.fn());
  group.subscribe(c.fn());
  group.start();
  for (std::uint64_t i = 1; i <= 100; ++i) group.broadcast(payload_of(i));
  ASSERT_TRUE(eventually(
      [&] { return a.size() >= 100 && b.size() >= 100 && c.size() >= 100; }, 10000ms));
  EXPECT_EQ(a.snapshot(), b.snapshot());
  EXPECT_EQ(a.snapshot(), c.snapshot());
  group.stop();
}

TEST(PaxosGroup, ToleratesMinorityAcceptorCrash) {
  GroupConfig cfg;
  cfg.acceptors = 3;  // f = 1
  PaxosGroup group(cfg);
  Sink sink;
  group.subscribe(sink.fn());
  group.start();
  for (std::uint64_t i = 1; i <= 20; ++i) group.broadcast(payload_of(i));
  ASSERT_TRUE(eventually([&] { return sink.size() >= 20; }));
  group.crash_acceptor(2);
  for (std::uint64_t i = 21; i <= 40; ++i) group.broadcast(payload_of(i));
  ASSERT_TRUE(eventually([&] { return sink.size() >= 40; }, 10000ms));
  const auto got = sink.snapshot();
  std::set<std::uint64_t> values;
  for (const auto& [seq, v] : got) values.insert(v);
  for (std::uint64_t i = 1; i <= 40; ++i) EXPECT_TRUE(values.contains(i)) << i;
  group.stop();
}

TEST(PaxosGroup, LeaderCrashFailsOverToStandby) {
  GroupConfig cfg;
  cfg.proposers = 2;
  PaxosGroup group(cfg);
  Sink sink;
  group.subscribe(sink.fn());
  group.start();
  for (std::uint64_t i = 1; i <= 10; ++i) group.broadcast(payload_of(i));
  ASSERT_TRUE(eventually([&] { return sink.size() >= 10; }));
  ASSERT_TRUE(eventually([&] { return group.leader_index() >= 0; }));

  const int old_leader = group.leader_index();
  group.crash_proposer(static_cast<unsigned>(old_leader));
  // Values submitted while leaderless must survive via the standby.
  for (std::uint64_t i = 11; i <= 30; ++i) group.broadcast(payload_of(i));
  ASSERT_TRUE(eventually([&] { return sink.size() >= 30; }, 15000ms));
  ASSERT_TRUE(eventually(
      [&] { return group.leader_index() >= 0 && group.leader_index() != old_leader; }));
  const auto got = sink.snapshot();
  std::set<std::uint64_t> values;
  for (const auto& [seq, v] : got) {
    EXPECT_TRUE(values.insert(v).second) << "duplicate delivery of " << v;
  }
  for (std::uint64_t i = 1; i <= 30; ++i) EXPECT_TRUE(values.contains(i)) << i;
  group.stop();
}

TEST(PaxosGroup, LiveUnderMessageLoss) {
  GroupConfig cfg;
  cfg.default_link.drop_probability = 0.10;
  cfg.seed = 99;
  PaxosGroup group(cfg);
  Sink sink;
  group.subscribe(sink.fn());
  group.start();
  for (std::uint64_t i = 1; i <= 50; ++i) group.broadcast(payload_of(i));
  ASSERT_TRUE(eventually([&] { return sink.size() >= 50; }, 20000ms));
  const auto got = sink.snapshot();
  std::set<std::uint64_t> values;
  for (const auto& [seq, v] : got) {
    EXPECT_TRUE(values.insert(v).second) << "duplicate delivery of " << v;
  }
  EXPECT_EQ(values.size(), 50u);
  group.stop();
}

TEST(PaxosGroup, LiveUnderDuplicationAndDelay) {
  GroupConfig cfg;
  cfg.default_link.duplicate_probability = 0.2;
  cfg.default_link.min_delay_us = 100;
  cfg.default_link.max_delay_us = 2000;
  PaxosGroup group(cfg);
  Sink a, b;
  group.subscribe(a.fn());
  group.subscribe(b.fn());
  group.start();
  for (std::uint64_t i = 1; i <= 50; ++i) group.broadcast(payload_of(i));
  ASSERT_TRUE(eventually([&] { return a.size() >= 50 && b.size() >= 50; }, 20000ms));
  EXPECT_EQ(a.snapshot(), b.snapshot());
  group.stop();
}

TEST(PaxosGroup, MinorityPartitionMakesNoProgress) {
  // Safety under partition: a leader cut off from all acceptors cannot
  // decide anything; healing the partition resumes progress with no loss.
  GroupConfig cfg;
  cfg.proposers = 1;  // no standby: the partitioned leader stays leader
  PaxosGroup group(cfg);
  Sink sink;
  group.subscribe(sink.fn());
  group.start();
  group.broadcast(payload_of(1));
  ASSERT_TRUE(eventually([&] { return sink.size() >= 1; }));

  // Cut the proposer from every acceptor.
  for (net::ProcessId acceptor : {200u, 201u, 202u}) {
    group.network().set_link_up(100, acceptor, false);
  }
  group.broadcast(payload_of(2));
  std::this_thread::sleep_for(300ms);
  EXPECT_EQ(sink.size(), 1u) << "decided a value without an acceptor majority";

  // Heal: the retransmission machinery must push the stalled value through.
  for (net::ProcessId acceptor : {200u, 201u, 202u}) {
    group.network().set_link_up(100, acceptor, true);
  }
  ASSERT_TRUE(eventually([&] { return sink.size() >= 2; }, 10000ms));
  EXPECT_EQ(sink.snapshot()[1].second, 2u);
  group.stop();
}

TEST(PaxosGroup, ProposerDuelConvergesToOneLeader) {
  // Isolate the proposers from each other (heartbeats lost): both run
  // elections against the shared acceptors. Ballot ordering + Nacks must
  // yield exactly one stable leader, and the service must keep deciding.
  GroupConfig cfg;
  cfg.proposers = 2;
  PaxosGroup group(cfg);
  Sink sink;
  group.subscribe(sink.fn());
  group.start();
  group.broadcast(payload_of(1));
  ASSERT_TRUE(eventually([&] { return sink.size() >= 1; }));

  group.network().set_link_up(100, 101, false);  // proposers cannot talk
  std::this_thread::sleep_for(500ms);            // both now believe leaderless
  group.network().set_link_up(100, 101, true);

  for (std::uint64_t i = 2; i <= 30; ++i) group.broadcast(payload_of(i));
  ASSERT_TRUE(eventually([&] { return sink.size() >= 30; }, 15000ms));
  // Exactly-once delivery preserved through the duel.
  std::set<std::uint64_t> values;
  for (const auto& [seq, v] : sink.snapshot()) {
    EXPECT_TRUE(values.insert(v).second) << "duplicate " << v;
  }
  EXPECT_EQ(values.size(), 30u);
  ASSERT_TRUE(eventually([&] { return group.leader_index() >= 0; }));
  group.stop();
}

TEST(PaxosGroup, LateLearnerCatchesUpFromInstanceOne) {
  GroupConfig cfg;
  PaxosGroup group(cfg);
  Sink original;
  group.subscribe(original.fn());
  group.start();
  for (std::uint64_t i = 1; i <= 40; ++i) group.broadcast(payload_of(i));
  ASSERT_TRUE(eventually([&] { return original.size() >= 40; }));

  // A recovering replica joins mid-stream: it must replay the full decided
  // prefix in order, then keep up with new traffic.
  Sink late;
  group.add_learner(late.fn());
  for (std::uint64_t i = 41; i <= 80; ++i) group.broadcast(payload_of(i));
  ASSERT_TRUE(eventually([&] { return late.size() >= 80 && original.size() >= 80; },
                         15000ms));
  EXPECT_EQ(late.snapshot(), original.snapshot());
}

TEST(PaxosGroup, BoundedProposerPipelineBlocksBroadcastAtCap) {
  // DESIGN.md §14: with max_unacked_broadcasts set, broadcast() becomes a
  // backpressure point — when the group cannot decide (here: proposer cut
  // off from every acceptor), the (cap+1)-th broadcast must BLOCK instead
  // of growing the retransmit buffer without bound, then complete once the
  // partition heals and the pipeline drains.
  GroupConfig cfg;
  cfg.proposers = 1;
  cfg.max_unacked_broadcasts = 4;
  PaxosGroup group(cfg);
  Sink sink;
  group.subscribe(sink.fn());
  group.start();
  group.broadcast(payload_of(1));
  ASSERT_TRUE(eventually([&] { return sink.size() >= 1; }));

  for (net::ProcessId acceptor : {200u, 201u, 202u}) {
    group.network().set_link_up(100, acceptor, false);
  }
  // Fill the pipeline to its cap (nothing decides, nothing is acked).
  for (std::uint64_t i = 2; i <= 5; ++i) group.broadcast(payload_of(i));

  std::atomic<bool> unblocked{false};
  std::thread blocked([&] {
    group.broadcast(payload_of(6));  // cap reached: must block here
    unblocked.store(true);
  });
  std::this_thread::sleep_for(200ms);
  EXPECT_FALSE(unblocked.load()) << "broadcast did not block at the cap";
  EXPECT_GE(group.stats().counter("consensus.backpressure_waits"), 1u);

  // Heal: retransmission decides the backlog, acks drain the pipeline, and
  // the blocked broadcaster gets its slot.
  for (net::ProcessId acceptor : {200u, 201u, 202u}) {
    group.network().set_link_up(100, acceptor, true);
  }
  ASSERT_TRUE(eventually([&] { return unblocked.load(); }, 15000ms));
  blocked.join();
  ASSERT_TRUE(eventually([&] { return sink.size() >= 6; }, 15000ms));
  std::set<std::uint64_t> values;
  for (const auto& [seq, v] : sink.snapshot()) values.insert(v);
  for (std::uint64_t i = 1; i <= 6; ++i) EXPECT_TRUE(values.contains(i)) << i;
  group.stop();
}

TEST(PaxosGroup, StopReleasesBroadcasterBlockedOnFullPipeline) {
  // Shutdown liveness: a broadcaster parked on the backpressure cv must be
  // released by stop() rather than wedging the process.
  GroupConfig cfg;
  cfg.proposers = 1;
  cfg.max_unacked_broadcasts = 2;
  PaxosGroup group(cfg);
  Sink sink;
  group.subscribe(sink.fn());
  group.start();
  for (net::ProcessId acceptor : {200u, 201u, 202u}) {
    group.network().set_link_up(100, acceptor, false);
  }
  for (std::uint64_t i = 1; i <= 2; ++i) group.broadcast(payload_of(i));
  std::atomic<bool> unblocked{false};
  std::thread blocked([&] {
    group.broadcast(payload_of(3));
    unblocked.store(true);
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(unblocked.load());
  group.stop();
  blocked.join();
  EXPECT_TRUE(unblocked.load());
}

TEST(PaxosGroup, FiveAcceptorsTolerateTwoCrashes) {
  GroupConfig cfg;
  cfg.acceptors = 5;  // f = 2
  PaxosGroup group(cfg);
  Sink sink;
  group.subscribe(sink.fn());
  group.start();
  group.crash_acceptor(0);
  group.crash_acceptor(4);
  for (std::uint64_t i = 1; i <= 20; ++i) group.broadcast(payload_of(i));
  ASSERT_TRUE(eventually([&] { return sink.size() >= 20; }, 10000ms));
  group.stop();
}

}  // namespace
}  // namespace psmr::consensus
