// Deterministic chaos harness over the full Paxos stack (the reliability
// acceptance suite): a seeded scripted fault timeline — duplicate batch
// injection, an acceptor partition with later heal, a leader crash, and a
// deterministic worker fault — replayed against two parallel replicas.
//
// Faults are anchored to LOGICAL clocks (delivery sequence, broadcast
// count) via FaultSchedule, never wall time, so a (seed, schedule) pair
// reproduces the same fault timeline relative to protocol progress. For
// every seed the suite asserts the reliability envelope end to end:
//   * both replicas converge to bit-identical stores and session tables,
//   * every tracked command executed at most once per replica
//     (ExecutionCounter — the exactly-once witness),
//   * the scripted worker fault fired exactly once per replica and was
//     isolated (failed_batches > 0, scheduler still live),
//   * the injected duplicate batch was deduplicated,
//   * the closed loop completed every command of every batch (retry +
//     cached-response replay keeps clients live through all of the above).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "chaos/chaos_util.hpp"
#include "consensus/group.hpp"
#include "kvstore/kvstore.hpp"
#include "smr/consensus_adapter.hpp"
#include "smr/proxy.hpp"
#include "smr/replica.hpp"
#include "testing/fault_schedule.hpp"
#include "util/rng.hpp"

namespace psmr {
namespace {

using namespace std::chrono_literals;

class ChaosTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosTest, ScriptedFaultTimelineKeepsReplicasIdenticalAndExactlyOnce) {
  const std::uint64_t seed = GetParam();

  consensus::GroupConfig gcfg;
  gcfg.seed = seed;
  gcfg.default_link.drop_probability = 0.03;
  gcfg.default_link.duplicate_probability = 0.05;
  consensus::PaxosGroup group(gcfg);
  smr::BitmapConfig bitmap;  // unused (no bitmaps in key mode) but must match
  smr::ConsensusAdapter adapter(group, bitmap);

  // Replica stacks: store <- service <- scripted worker fault <- exactly-once
  // witness. The SAME fault script on both replicas keeps failures
  // deterministic across the group.
  constexpr std::size_t kNumClients = 8;
  constexpr std::size_t kBatchSize = 16;
  kv::KvStore store_a, store_b;
  kv::KvService svc_a(store_a), svc_b(store_b);
  testing::ThrowingService throwing_a(svc_a), throwing_b(svc_b);
  testing::ExecutionCounter counter_a(throwing_a), counter_b(throwing_b);
  // Client 2's third command (second batch: per-batch sequences advance by
  // 2 with 16 commands over 8 clients) always throws, on every replica.
  throwing_a.throw_on(2, 3);
  throwing_b.throw_on(2, 3);

  smr::Proxy* proxy_ptr = nullptr;
  auto sink = [&](const smr::Response& r) {
    if (proxy_ptr != nullptr) proxy_ptr->on_response(r);
  };
  smr::Replica::Config rcfg;
  rcfg.scheduler.workers = 4;
  rcfg.scheduler.mode = core::ConflictMode::kKeysNested;
  smr::Replica replica_a(rcfg, counter_a, sink);
  rcfg.replica_id = 1;
  smr::Replica replica_b(rcfg, counter_b, sink);

  // The scripted fault timeline, anchored to logical clocks.
  testing::FaultSchedule fs;
  std::mutex cap_mu;
  smr::BatchPtr first_batch;  // captured at delivery 1, re-injected later
  fs.at(testing::Trigger::kDelivery, 6, "inject-duplicate", [&] {
    std::lock_guard lk(cap_mu);
    if (first_batch != nullptr) {
      adapter.broadcast(std::make_unique<smr::Batch>(*first_batch));
    }
  });
  fs.at(testing::Trigger::kDelivery, 8, "partition-acceptor", [&] {
    group.set_partition({group.acceptor_process(2)}, /*up=*/false);
  });
  fs.at(testing::Trigger::kDelivery, 12, "heal-acceptor", [&] {
    group.set_partition({group.acceptor_process(2)}, /*up=*/true);
  });
  fs.at(testing::Trigger::kBroadcast, 4, "crash-leader", [&] {
    const int leader = group.leader_index();
    if (leader >= 0) group.crash_proposer(static_cast<unsigned>(leader));
  });

  adapter.subscribe_replica([&](smr::BatchPtr b) {
    {
      std::lock_guard lk(cap_mu);
      if (first_batch == nullptr) first_batch = b;
    }
    const std::uint64_t seq = b->sequence();
    replica_a.deliver(std::move(b));
    fs.advance(testing::Trigger::kDelivery, seq);
  });
  adapter.subscribe_replica([&](smr::BatchPtr b) { replica_b.deliver(std::move(b)); });

  smr::Proxy::Config pcfg;
  pcfg.proxy_id = 0;
  pcfg.formation.batch_size = kBatchSize;
  pcfg.num_clients = kNumClients;
  pcfg.reliability.retry.initial = 50ms;
  pcfg.reliability.retry.max = 400ms;
  util::Xoshiro256 rng(seed * 7919 + 1);
  std::atomic<std::uint64_t> broadcasts{0};
  smr::Proxy proxy(
      pcfg,
      [&](std::uint64_t, std::uint64_t) {
        smr::Command c;
        c.type = smr::OpType::kUpdate;
        c.key = rng.next_below(500);
        c.value = rng();
        return c;
      },
      [&](std::unique_ptr<smr::Batch> b) {
        adapter.broadcast(std::move(b));
        fs.advance(testing::Trigger::kBroadcast, broadcasts.fetch_add(1) + 1);
      });
  proxy_ptr = &proxy;

  group.start();
  replica_a.start();
  replica_b.start();
  proxy.start();

  // Run until the whole fault script has played out and the closed loop made
  // progress past it.
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (std::chrono::steady_clock::now() < deadline &&
         (fs.pending() > 0 || proxy.batches_completed() < 10)) {
    std::this_thread::sleep_for(20ms);
  }
  proxy.stop();
  chaos::drain_replicas({&replica_a, &replica_b});
  group.stop();
  replica_a.stop();
  replica_b.stop();

  // The whole script fired.
  EXPECT_EQ(fs.pending(), 0u) << "seed " << seed;
  ASSERT_EQ(fs.fired().size(), 4u);

  // Bit-identical replica state: stores AND session tables.
  EXPECT_EQ(store_a.snapshot(), store_b.snapshot()) << "seed " << seed;
  EXPECT_EQ(store_a.digest(), store_b.digest());
  EXPECT_EQ(replica_a.sessions().digest(), replica_b.sessions().digest());

  // Exactly-once execution on every replica, despite retransmissions, the
  // injected duplicate, and network-level duplication.
  EXPECT_TRUE(counter_a.over_executed().empty());
  EXPECT_TRUE(counter_b.over_executed().empty());
  EXPECT_EQ(counter_a.max_executions(), 1u);
  EXPECT_EQ(counter_b.max_executions(), 1u);
  EXPECT_EQ(counter_a.distinct_commands(), counter_b.distinct_commands());

  // The scripted worker fault: exactly one real execution attempt per
  // replica (the session table replays the cached error afterwards), the
  // batch accounted as failed, and the scheduler survived it (the run kept
  // completing batches — checked below).
  EXPECT_EQ(throwing_a.throws(), 1u);
  EXPECT_EQ(throwing_b.throws(), 1u);
  EXPECT_GT(replica_a.stats().counter("scheduler.batches_failed"), 0u);
  EXPECT_GT(replica_b.stats().counter("scheduler.batches_failed"), 0u);

  // The injected duplicate was recognized on both replicas (delivery fast
  // path or execution-time session gate).
  EXPECT_GT(replica_a.batches_deduped_at_delivery() +
                replica_a.sessions().duplicates_filtered(),
            0u);
  EXPECT_GT(replica_b.batches_deduped_at_delivery() +
                replica_b.sessions().duplicates_filtered(),
            0u);

  // The closed loop stayed live end to end: every completed batch completed
  // in full (exactly-once response accounting at the client side).
  EXPECT_GE(proxy.batches_completed(), 10u);
  EXPECT_EQ(proxy.commands_completed(), proxy.batches_completed() * kBatchSize);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest, ::testing::Values(3u, 11u, 29u),
                         [](const auto& param_info) {
                           return "seed_" + std::to_string(param_info.param);
                         });

TEST(ChaosRecovery, CircuitRecoversAfterFaultsStopInjecting) {
  // ISSUE 5: a fault schedule that stops injecting mid-run must leave the
  // replica fully recovered — the circuit breaker half-opens on clean
  // traffic, `scheduler.degraded` returns to 0, and
  // `scheduler.batches_executed` keeps advancing at full parallelism.
  kv::KvStore store;
  kv::KvService svc(store);
  testing::ThrowingService throwing(svc);
  // The whole fault script: client 1's first three commands (one per batch,
  // below) throw; nothing after sequence 3 ever faults.
  throwing.throw_on(1, 1);
  throwing.throw_on(1, 2);
  throwing.throw_on(1, 3);

  smr::Replica::Config rcfg;
  rcfg.scheduler.workers = 4;
  rcfg.scheduler.mode = core::ConflictMode::kKeysNested;
  rcfg.scheduler.circuit_failure_threshold = 2;
  rcfg.scheduler.circuit_recovery_threshold = 3;
  smr::Replica replica(rcfg, throwing, [](const smr::Response&) {});
  replica.start();

  auto make = [](std::uint64_t seq, smr::Key key) {
    smr::Command c;
    c.type = smr::OpType::kUpdate;
    c.key = key;
    c.value = seq;
    c.client_id = 1;
    c.sequence = seq;
    auto b = std::make_shared<smr::Batch>(std::vector<smr::Command>{c});
    b->set_sequence(seq);
    return b;
  };

  // Phase 1: every delivered batch faults (same key -> strictly sequential,
  // so the consecutive-failure count is deterministic) and the circuit
  // trips at the configured threshold.
  for (std::uint64_t seq = 1; seq <= 3; ++seq) replica.deliver(make(seq, 7));
  replica.wait_idle();
  {
    const auto st = replica.stats();
    EXPECT_EQ(st.counter("scheduler.batches_failed"), 3u);
    EXPECT_EQ(st.counter("scheduler.circuit.trips"), 1u);
    EXPECT_EQ(st.gauge("scheduler.degraded"), 1.0);
  }

  // Phase 2: the schedule has stopped injecting. Drive clean traffic until
  // the scheduler leaves degraded mode (bounded: 3 consecutive successes
  // close the circuit, so this converges after 3 batches).
  std::uint64_t seq = 3;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (replica.stats().gauge("scheduler.degraded") != 0.0 &&
         std::chrono::steady_clock::now() < deadline) {
    ++seq;
    replica.deliver(make(seq, 1000 + seq));
    replica.wait_idle();
  }
  {
    const auto st = replica.stats();
    EXPECT_EQ(st.gauge("scheduler.degraded"), 0.0);
    EXPECT_EQ(st.counter("scheduler.circuit.recoveries"), 1u);
  }

  // Phase 3: liveness after recovery — batches_executed keeps advancing.
  const std::uint64_t executed_at_recovery =
      replica.stats().counter("scheduler.batches_executed");
  for (int i = 0; i < 20; ++i) {
    ++seq;
    replica.deliver(make(seq, 2000 + seq));
  }
  replica.wait_idle();
  replica.stop();
  const auto st = replica.stats();
  EXPECT_EQ(st.counter("scheduler.batches_executed"), executed_at_recovery + 20);
  EXPECT_EQ(st.counter("scheduler.circuit.trips"), 1u);
  EXPECT_EQ(throwing.throws(), 3u);
  // Replica state reflects every non-faulted command exactly once.
  EXPECT_EQ(store.size(), static_cast<std::size_t>(seq - 3));
}

}  // namespace
}  // namespace psmr
