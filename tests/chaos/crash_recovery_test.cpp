// Deterministic crash/restart chaos (ISSUE 6): a FaultSchedule crashes a
// replica mid-run (kReplicaCrash anchored to the delivery clock), the log
// is truncated behind quorum-stable checkpoints while it is down, and the
// kReplicaRestart trigger brings a NEW incarnation back through the
// automated rejoin path (checkpoint fetch + suffix replay). The run must
// converge to the undisturbed replica's exact KV state, with the restarted
// replica never double-executing a command. A scripted leader crash
// ("crash the leader after 20 broadcasts") rides the same schedule.
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
#include "smr/replica.hpp"
#include "smr/state_transfer.hpp"
#include "testing/fault_schedule.hpp"

namespace psmr {
namespace {

using namespace std::chrono_literals;

constexpr std::uint64_t kCheckpointInterval = 25;
constexpr std::uint64_t kTotalBatches = 200;

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

class CrashRecoveryTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrashRecoveryTest, RestartedReplicaConvergesViaCheckpointAndTruncatedLog) {
  smr::BitmapConfig bitmap;
  bitmap.bits = 102400;
  consensus::GroupConfig gcfg;
  gcfg.seed = GetParam();
  consensus::PaxosGroup group(gcfg);

  testing::FaultSchedule fs;
  smr::CheckpointQuorum quorum(2);  // both replicas must cover a prefix

  auto make_delivery = [&](smr::Replica& replica) {
    return [&bitmap, &replica](std::uint64_t seq, consensus::Value payload) {
      if (!payload) return;
      auto decoded = smr::decode_batch(*payload, bitmap);
      if (!decoded.has_value()) return;
      decoded->set_sequence(seq);
      replica.deliver(std::make_shared<const smr::Batch>(*std::move(decoded)));
    };
  };

  // Replica A: undisturbed reference. Publishes checkpoints to its state
  // server and drives quorum-stable log truncation.
  Incarnation a(kCheckpointInterval);
  smr::StateTransferServer server_a(group.network(), group.state_process(0));
  a.replica->checkpoints()->set_on_checkpoint(
      [&](const smr::CheckpointPtr& record) {
        server_a.publish(record);
        const std::uint64_t stable = quorum.note(0, record->log_horizon);
        if (stable > 1) group.truncate_log_below(stable);
      });
  server_a.start();

  // Replica B: the crash victim. Its incarnations swap through this holder;
  // b_mu guards the swap (restart runs on A's learner thread while the main
  // thread polls for convergence).
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

  // A's delivery advances the schedule's delivery clock (the logical time
  // faults anchor to).
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
    // A NEW incarnation recovers through the library path: fetch A's latest
    // checkpoint, install state + sessions, subscribe from its horizon.
    auto fresh = std::make_unique<Incarnation>(kCheckpointInterval);
    report_b_checkpoints(*fresh->replica);
    smr::RejoinOptions opts;
    opts.self = group.state_process(20);
    opts.servers = {group.state_process(0)};
    auto learner = smr::rejoin_replica(group, *fresh->replica,
                                       make_delivery(*fresh->replica), opts);
    ASSERT_TRUE(learner.has_value()) << "rejoin failed";
    std::lock_guard lk(b_mu);
    b = std::move(fresh);  // old incarnation (crashed learner) is discarded
  };

  fs.at(testing::Trigger::kBroadcast, 20, "crash-leader",
        [&] { group.crash_proposer(0); });
  // The crash waits for B's own first checkpoint (not just A's clock): a
  // lagging B crashed before it ever published would leave the quorum one
  // member short. The restart waits for the crash.
  fs.crash_replica_at(testing::Trigger::kDelivery, 60, "crash-replica-b", target,
                      [&] {
                        return b_published.load(std::memory_order_acquire) >=
                               kCheckpointInterval;
                      });
  fs.restart_replica_at(testing::Trigger::kDelivery, 120, "restart-replica-b", target,
                        [&] { return b_crashed.load(std::memory_order_acquire); });

  // Tracked update traffic: 8 clients, FIFO sequences, overlapping keys.
  for (std::uint64_t i = 0; i < kTotalBatches; ++i) {
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
    fs.advance(testing::Trigger::kBroadcast, i + 1);
  }

  // Convergence: A executes everything; B's current incarnation must reach
  // A's exact state (checkpoint prefix + replayed suffix). The poll also
  // re-reports A's delivery clock: a B lagging past A's last delivery opens
  // the crash gate only then, and the crash and restart still fire.
  const auto deadline = std::chrono::steady_clock::now() + 30000ms;
  while (std::chrono::steady_clock::now() < deadline) {
    fs.advance(testing::Trigger::kDelivery, a_delivered.load(std::memory_order_acquire));
    a.replica->wait_idle();
    bool converged = false;
    if (a.replica->stats().counter("scheduler.commands_executed") >=
            kTotalBatches &&
        fs.pending() == 0) {
      std::lock_guard lk(b_mu);
      converged = b->store.snapshot() == a.store.snapshot();
    }
    if (converged) break;
    std::this_thread::sleep_for(25ms);
  }
  {
    // Scoped: group.stop() below joins the learner thread that runs
    // restart, which itself takes b_mu — holding it across stop would
    // deadlock a timed-out run.
    std::lock_guard final_lk(b_mu);
    EXPECT_EQ(fs.fired_count(testing::FaultKind::kReplicaCrash), 1u);
    EXPECT_EQ(fs.fired_count(testing::FaultKind::kReplicaRestart), 1u);
    EXPECT_EQ(fs.pending(), 0u) << "schedule did not fully fire";
    EXPECT_EQ(a.store.snapshot(), b->store.snapshot())
        << "restarted replica diverged from the undisturbed one (seed "
        << GetParam() << ")";
    EXPECT_EQ(a.store.digest(), b->store.digest());
    // Exactly-once held across the crash: the new incarnation never ran any
    // command twice (checkpoint sessions + log replay dedup).
    EXPECT_LE(b->counter->max_executions(), 1u);
    // The rejoin really used the checkpoint: B's second incarnation replayed
    // only a suffix.
    EXPECT_LT(b->replica->stats().counter("scheduler.commands_executed"),
              a.replica->stats().counter("scheduler.commands_executed"));
    // Truncation was exercised behind a quorum-stable horizon.
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

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryTest, ::testing::Values(3ull, 11ull));

}  // namespace
}  // namespace psmr
