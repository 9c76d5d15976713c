// Repartition × crash-recovery chaos (ISSUE 9 satellite): a kRepartition
// control batch flows through the total order and is applied by every
// replica; one replica crashes BETWEEN the repartition decide and the next
// checkpoint, rejoins through the automated state-transfer path, and then a
// re-proposal (the proxy-side repartitioner fires again while skew
// persists — control batches are not durable state, durability comes from
// re-proposal) converges its class-map fingerprint with the survivor's.
// The run must end with identical KV state AND identical fingerprints,
// with no command executed twice.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "consensus/group.hpp"
#include "kvstore/kvstore.hpp"
#include "smr/checkpoint.hpp"
#include "smr/codec.hpp"
#include "smr/conflict_class.hpp"
#include "smr/repartition.hpp"
#include "smr/replica.hpp"
#include "smr/state_transfer.hpp"
#include "testing/fault_schedule.hpp"

namespace psmr {
namespace {

using namespace std::chrono_literals;

constexpr std::uint64_t kCheckpointInterval = 25;
constexpr std::uint64_t kTotalBatches = 200;

std::shared_ptr<const smr::ConflictClassMap> initial_map() {
  auto m = std::make_shared<smr::ConflictClassMap>();
  m->add_range(0, 31, 0);
  m->add_range(32, 63, 1);
  return m;
}

std::shared_ptr<const smr::ConflictClassMap> rebalanced_map() {
  auto m = std::make_shared<smr::ConflictClassMap>();
  m->add_range(0, 15, 0);
  m->add_range(16, 47, 1);
  m->add_range(48, 63, 2);
  return m;
}

struct Incarnation {
  kv::KvStore store;
  std::unique_ptr<kv::KvService> service;
  std::unique_ptr<testing::ExecutionCounter> counter;
  std::unique_ptr<smr::Replica> replica;

  explicit Incarnation(std::uint64_t checkpoint_interval) {
    service = std::make_unique<kv::KvService>(store);
    counter = std::make_unique<testing::ExecutionCounter>(*service);
    smr::Replica::Config rcfg;
    rcfg.scheduler.workers = 4;
    rcfg.scheduler.mode = core::ConflictMode::kBitmap;
    rcfg.scheduler.class_map = initial_map();
    rcfg.checkpoint_interval = checkpoint_interval;
    rcfg.checkpoint_state = [this] { return store.serialize(); };
    rcfg.checkpoint_install = [this](const std::vector<std::uint8_t>& b) {
      return store.deserialize(b);
    };
    replica = std::make_unique<smr::Replica>(rcfg, *counter,
                                             [](const smr::Response&) {});
    replica->start();
  }
};

TEST(RepartitionRecoveryTest, RejoinedReplicaConvergesToRepartitionedMap) {
  const auto next_map = rebalanced_map();
  ASSERT_NE(next_map->fingerprint(), initial_map()->fingerprint());

  smr::BitmapConfig bitmap;
  bitmap.bits = 102400;
  consensus::GroupConfig gcfg;
  gcfg.seed = 7;
  consensus::PaxosGroup group(gcfg);

  testing::FaultSchedule fs;
  smr::CheckpointQuorum quorum(2);

  auto make_delivery = [&](smr::Replica& replica) {
    return [&bitmap, &replica](std::uint64_t seq, consensus::Value payload) {
      if (!payload) return;
      auto decoded = smr::decode_batch(*payload, bitmap);
      if (!decoded.has_value()) return;
      decoded->set_sequence(seq);
      replica.deliver(std::make_shared<const smr::Batch>(*std::move(decoded)));
    };
  };

  // Replica A: undisturbed reference, publishes checkpoints for rejoin.
  Incarnation a(kCheckpointInterval);
  smr::StateTransferServer server_a(group.network(), group.state_process(0));
  a.replica->checkpoints()->set_on_checkpoint(
      [&](const smr::CheckpointPtr& record) {
        server_a.publish(record);
        const std::uint64_t stable = quorum.note(0, record->log_horizon);
        if (stable > 1) group.truncate_log_below(stable);
      });
  server_a.start();

  // Replica B: crashes after the repartition decide, before the next
  // checkpoint covers it.
  std::mutex b_mu;
  std::unique_ptr<Incarnation> b = std::make_unique<Incarnation>(kCheckpointInterval);
  // Every incarnation of B reports to the quorum as replica 1; the first
  // one's newest published checkpoint also gates the crash below.
  std::atomic<std::uint64_t> b_published{0};
  std::atomic<bool> b_crashed{false};
  const auto report_b_checkpoints = [&](smr::Replica& replica) {
    replica.checkpoints()->set_on_checkpoint([&](const smr::CheckpointPtr& record) {
      b_published.store(record->sequence, std::memory_order_release);
      const std::uint64_t stable = quorum.note(1, record->log_horizon);
      if (stable > 1) group.truncate_log_below(stable);
    });
  };
  report_b_checkpoints(*b->replica);
  const std::size_t b_first_learner = 1;

  std::atomic<std::uint64_t> a_delivered{0};
  group.subscribe([&, deliver_a = make_delivery(*a.replica)](
                      std::uint64_t seq, consensus::Value payload) {
    deliver_a(seq, payload);
    a_delivered.store(seq, std::memory_order_release);
    fs.advance(testing::Trigger::kDelivery, seq);
  });
  group.subscribe(make_delivery(*b->replica));
  group.start();

  struct BTarget final : testing::ReplicaFaultTarget {
    std::function<void()> on_crash, on_restart;
    void crash() override { on_crash(); }
    void restart() override { on_restart(); }
  } target;
  target.on_crash = [&] {
    group.crash_learner(b_first_learner);
    b->replica->stop();
    b_crashed.store(true, std::memory_order_release);
  };
  target.on_restart = [&] {
    // The new incarnation starts from the INITIAL map; it recovers state
    // through A's checkpoint (which post-dates the first repartition — the
    // control batch is no longer in its replay suffix) and learns the new
    // map only from the re-proposal below.
    auto fresh = std::make_unique<Incarnation>(kCheckpointInterval);
    report_b_checkpoints(*fresh->replica);
    smr::RejoinOptions opts;
    opts.self = group.state_process(20);
    opts.servers = {group.state_process(0)};
    auto learner = smr::rejoin_replica(group, *fresh->replica,
                                       make_delivery(*fresh->replica), opts);
    ASSERT_TRUE(learner.has_value()) << "rejoin failed";
    std::lock_guard lk(b_mu);
    b = std::move(fresh);
  };

  // Repartition decided around delivery ~56; crash at 60 — BEFORE the
  // checkpoint at 75 first covers the new map's regime; restart at 120. The
  // crash also waits for B's own first checkpoint (a lagging B crashed
  // before it ever published would leave the quorum one member short), and
  // the restart for the crash.
  fs.crash_replica_at(testing::Trigger::kDelivery, 60, "crash-replica-b", target,
                      [&] {
                        return b_published.load(std::memory_order_acquire) >=
                               kCheckpointInterval;
                      });
  fs.restart_replica_at(testing::Trigger::kDelivery, 120, "restart-replica-b", target,
                        [&] { return b_crashed.load(std::memory_order_acquire); });

  const auto repartition_payload = std::make_shared<const std::vector<std::uint8_t>>(
      smr::encode_batch(smr::encode_repartition(*next_map)));

  // Tracked update traffic over the classified key range; the kRepartition
  // proposal rides the same total order at broadcast 55.
  for (std::uint64_t i = 0; i < kTotalBatches; ++i) {
    if (i == 55) group.broadcast(repartition_payload);
    std::vector<smr::Command> cmds;
    smr::Command c;
    c.type = smr::OpType::kUpdate;
    c.key = i % 64;
    c.value = i + 1;
    c.client_id = 1 + i % 8;
    c.sequence = 1 + i / 8;
    cmds.push_back(c);
    smr::Batch batch(std::move(cmds));
    batch.build_bitmap(bitmap);
    group.broadcast(
        std::make_shared<const std::vector<std::uint8_t>>(smr::encode_batch(batch)));
  }

  // Sustained skew re-proposes the same map AFTER the restart has fired —
  // proposers pipeline, so only a broadcast issued after the rejoin is
  // guaranteed an instance past the fresh incarnation's checkpoint horizon
  // (exactly like a real proxy, whose next hot epoch closes after rejoin).
  const auto fault_deadline = std::chrono::steady_clock::now() + 20000ms;
  while (fs.pending() != 0 &&
         std::chrono::steady_clock::now() < fault_deadline) {
    // Re-reports A's delivery clock: a B lagging past A's last delivery
    // opens the crash gate only then, and the crash and restart still fire.
    fs.advance(testing::Trigger::kDelivery, a_delivered.load(std::memory_order_acquire));
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(fs.pending(), 0u) << "crash/restart schedule did not fire";
  group.broadcast(repartition_payload);

  const auto deadline = std::chrono::steady_clock::now() + 30000ms;
  while (std::chrono::steady_clock::now() < deadline) {
    a.replica->wait_idle();
    bool converged = false;
    if (a.replica->stats().counter("scheduler.commands_executed") >=
            kTotalBatches &&
        fs.pending() == 0) {
      // A must have delivered the re-proposal too: B's learner can run
      // ahead of A's, and B alone on the new map is not convergence.
      std::lock_guard lk(b_mu);
      converged = a.replica->repartitions_applied() >= 2 &&
                  b->store.snapshot() == a.store.snapshot() &&
                  b->replica->class_map_fingerprint() == next_map->fingerprint();
    }
    if (converged) break;
    std::this_thread::sleep_for(25ms);
  }
  {
    std::lock_guard final_lk(b_mu);
    EXPECT_EQ(fs.fired_count(testing::FaultKind::kReplicaCrash), 1u);
    EXPECT_EQ(fs.fired_count(testing::FaultKind::kReplicaRestart), 1u);
    EXPECT_EQ(fs.pending(), 0u) << "schedule did not fully fire";
    EXPECT_EQ(a.store.snapshot(), b->store.snapshot());
    EXPECT_EQ(a.store.digest(), b->store.digest());
    // Both replicas ended on the repartitioned map.
    EXPECT_EQ(a.replica->class_map_fingerprint(), next_map->fingerprint());
    EXPECT_EQ(b->replica->class_map_fingerprint(), next_map->fingerprint());
    // A saw the proposal and the re-proposal; B's new incarnation at least
    // the re-proposal (the first one normally predates its checkpoint
    // horizon and is skipped with the rest of the replayed prefix).
    EXPECT_EQ(a.replica->repartitions_applied(), 2u);
    EXPECT_GE(b->replica->repartitions_applied(), 1u);
    // Exactly-once held across crash + repartition: no double execution,
    // and control batches never reached the service at all.
    EXPECT_LE(b->counter->max_executions(), 1u);
    EXPECT_LT(b->replica->stats().counter("scheduler.commands_executed"),
              a.replica->stats().counter("scheduler.commands_executed"));
    EXPECT_GT(quorum.stable(), 1u);
  }

  group.stop();
  a.replica->stop();
  {
    std::lock_guard lk(b_mu);
    b->replica->stop();
  }
  server_a.stop();
}

}  // namespace
}  // namespace psmr
