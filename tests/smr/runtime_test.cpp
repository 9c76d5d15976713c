// Tests for the SMR runtime pieces: Proxy, Replica, SequentialReplica,
// wired in small in-process deployments (LocalBroadcast behind the
// ConsensusAdapter as the total order).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "consensus/group.hpp"
#include "kvstore/kvstore.hpp"
#include "smr/consensus_adapter.hpp"
#include "smr/proxy.hpp"
#include "smr/replica.hpp"
#include "smr/sequential_replica.hpp"
#include "util/rng.hpp"

namespace psmr::smr {
namespace {

using namespace std::chrono_literals;

std::unique_ptr<Batch> updates(std::initializer_list<Key> keys) {
  // Session dedup keys on (client_id, sequence): draw sequences from a
  // process-wide counter so distinct test commands never alias.
  static std::atomic<std::uint64_t> next_seq{0};
  std::vector<Command> cmds;
  for (Key k : keys) {
    Command c;
    c.type = OpType::kUpdate;
    c.key = k;
    c.value = k * 10;
    c.client_id = 1;
    c.sequence = next_seq.fetch_add(1) + 1;
    cmds.push_back(c);
  }
  return std::make_unique<Batch>(std::move(cmds));
}

TEST(SequentialReplica, SynchronousApplyExecutesInOrder) {
  kv::KvStore store;
  kv::KvService service(store);
  std::vector<Response> responses;
  SequentialReplica replica(service, [&](const Response& r) { responses.push_back(r); });
  auto batch = updates({1, 2, 3});
  replica.apply(*batch);
  EXPECT_EQ(replica.commands_executed(), 3u);
  EXPECT_EQ(responses.size(), 3u);
  EXPECT_EQ(store.size(), 3u);
}

TEST(SequentialReplica, ThreadedModeDrainsQueue) {
  kv::KvStore store;
  kv::KvService service(store);
  std::atomic<int> responses{0};
  SequentialReplica replica(service, [&](const Response&) { responses.fetch_add(1); });
  replica.start();
  for (int i = 0; i < 50; ++i) replica.deliver(BatchPtr(updates({static_cast<Key>(i)})));
  replica.stop();  // close + join drains first
  EXPECT_EQ(responses.load(), 50);
  EXPECT_EQ(store.size(), 50u);
}

TEST(Replica, ExecutesAndRoutesResponses) {
  kv::KvStore store;
  kv::KvService service(store);
  std::atomic<int> responses{0};
  Replica::Config cfg;
  cfg.scheduler.workers = 4;
  Replica replica(cfg, service, [&](const Response&) { responses.fetch_add(1); });
  replica.start();
  for (std::uint64_t i = 1; i <= 20; ++i) {
    auto b = updates({i * 10, i * 10 + 1});
    b->set_sequence(i);
    replica.deliver(BatchPtr(std::move(b)));
  }
  replica.wait_idle();
  replica.stop();
  EXPECT_EQ(responses.load(), 40);
  EXPECT_EQ(store.size(), 40u);
}

/// Holds every command on `held_key` until `open` is set, so a test can keep
/// a batch resident (taken) in the replica's graph.
class GatedService : public Service {
 public:
  GatedService(Service& inner, Key held_key, const std::atomic<bool>& open)
      : inner_(inner), held_key_(held_key), open_(open) {}
  Response execute(const Command& cmd) override {
    if (cmd.key == held_key_) {
      while (!open_.load(std::memory_order_acquire)) std::this_thread::yield();
    }
    return inner_.execute(cmd);
  }

 private:
  Service& inner_;
  Key held_key_;
  const std::atomic<bool>& open_;
};

TEST(Replica, BitmapReplicaRejectsBatchWithoutDigest) {
  // Whether a payload carries a digest is up to its sender. A bitmap
  // replica that scheduled a digestless batch next to a resident one could
  // not pair-test them; it must answer it as failed instead, at every
  // replica alike, and go on.
  BitmapConfig bitmap;
  bitmap.bits = 4096;
  consensus::LocalBroadcast broadcast;
  ConsensusAdapter order(broadcast, bitmap);
  std::atomic<bool> open{false};
  constexpr Key kHeld = 1;
  kv::KvStore store_a, store_b;
  kv::KvService kv_a(store_a), kv_b(store_b);
  GatedService svc_a(kv_a, kHeld, open), svc_b(kv_b, kHeld, open);
  std::mutex mu;
  std::vector<Response> responses[2];
  auto sink_of = [&](int r) {
    return [&, r](const Response& resp) {
      std::lock_guard lk(mu);
      responses[r].push_back(resp);
    };
  };
  auto config_of = [&](kv::KvStore& store) {
    Replica::Config rcfg;
    rcfg.scheduler.workers = 2;
    rcfg.scheduler.mode = core::ConflictMode::kBitmap;
    rcfg.checkpoint_interval = 4;
    rcfg.checkpoint_state = [&store] { return store.serialize(); };
    return rcfg;
  };
  Replica ra(config_of(store_a), svc_a, sink_of(0));
  Replica rb(config_of(store_b), svc_b, sink_of(1));
  order.subscribe_replica([&](BatchPtr b) { ra.deliver(b); });
  order.subscribe_replica([&](BatchPtr b) { rb.deliver(b); });
  ra.start();
  rb.start();

  auto with_digest = [&](std::initializer_list<Key> keys) {
    auto b = updates(keys);
    b->build_bitmap(bitmap);
    return b;
  };
  std::vector<Command> rejected;
  auto without_digest = [&](std::initializer_list<Key> keys) {
    auto b = updates(keys);
    rejected.insert(rejected.end(), b->commands().begin(), b->commands().end());
    return b;
  };
  order.broadcast(with_digest({kHeld, 2}));  // seq 1: held in execution
  order.broadcast(without_digest({2, 3}));   // seq 2: next to a resident batch
  order.broadcast(with_digest({4, 5}));      // seq 3
  open.store(true, std::memory_order_release);
  order.broadcast(with_digest({2, 6}));      // seq 4: checkpoint
  for (Key k = 7; k < 10; ++k) order.broadcast(with_digest({k}));  // seqs 5-7
  order.broadcast(without_digest({10}));     // seq 8: checkpoint on a rejected batch
  ra.wait_idle();
  rb.wait_idle();
  ra.stop();
  rb.stop();

  for (int r = 0; r < 2; ++r) {
    const Replica& replica = r == 0 ? ra : rb;
    EXPECT_EQ(replica.stats().counter("replica.batches_rejected"), 2u) << "replica " << r;
    std::size_t failed = 0, ok = 0;
    for (const Response& resp : responses[r]) {
      const bool was_rejected =
          std::any_of(rejected.begin(), rejected.end(), [&](const Command& c) {
            return c.client_id == resp.client_id && c.sequence == resp.sequence;
          });
      EXPECT_EQ(resp.status, was_rejected ? Status::kFailed : Status::kOk);
      (was_rejected ? failed : ok) += 1;
    }
    EXPECT_EQ(failed, rejected.size()) << "replica " << r;
    EXPECT_EQ(ok, 9u) << "replica " << r;
    // Every delivered batch is consumed once: 6 scheduled, 2 rejected.
    EXPECT_EQ(replica.batches_consumed(), 8u) << "replica " << r;
  }
  // Only the batches with digests ran: keys 3 and 10 were never written.
  const auto state = store_a.snapshot();
  EXPECT_EQ(state, store_b.snapshot());
  EXPECT_EQ(state.size(), 8u);
  Value v = 0;
  EXPECT_EQ(store_a.read(3, v), Status::kNotFound);
  EXPECT_EQ(store_a.read(10, v), Status::kNotFound);
  // Rejected sequences advance the checkpoint clock like any other.
  for (Replica* replica : {&ra, &rb}) {
    ASSERT_EQ(replica->checkpoints()->checkpoints_taken(), 2u);
    EXPECT_EQ(replica->checkpoints()->latest()->sequence, 8u);
  }
  EXPECT_EQ(ra.checkpoints()->latest()->state, rb.checkpoints()->latest()->state);
  // The session table is on, so the checkpoints carry it, alike too.
  EXPECT_FALSE(ra.checkpoints()->latest()->sessions.empty());
  EXPECT_EQ(ra.checkpoints()->latest()->sessions, rb.checkpoints()->latest()->sessions);
}

TEST(Proxy, ClosedLoopCompletesBatches) {
  // Each round is one batch of batch_size commands, drawn round-robin over
  // the proxy's clients, each client's sequences consecutive.
  constexpr std::uint64_t kProxyId = 3;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kBatchSize = 10;
  constexpr std::uint64_t kRounds = 20;
  consensus::LocalBroadcast broadcast;
  ConsensusAdapter order(broadcast, BitmapConfig{});
  kv::KvStore store;
  kv::KvService service(store);
  Proxy* proxy_ptr = nullptr;
  Replica::Config rcfg;
  rcfg.scheduler.workers = 2;
  Replica replica(rcfg, service, [&](const Response& r) {
    if (proxy_ptr) proxy_ptr->on_response(r);
  });
  order.subscribe_replica([&](BatchPtr b) { replica.deliver(b); });
  replica.start();

  Proxy::Config pcfg;
  pcfg.proxy_id = kProxyId;
  pcfg.formation.batch_size = kBatchSize;
  pcfg.num_clients = kClients;
  util::Xoshiro256 rng(3);
  std::vector<Batch> sent;  // written by the proxy thread until stop() joins it
  Proxy proxy(
      pcfg,
      [&](std::uint64_t, std::uint64_t) {
        Command c;
        c.type = OpType::kUpdate;
        c.key = rng();
        return c;
      },
      [&](std::unique_ptr<Batch> b) {
        sent.push_back(*b);
        order.broadcast(std::move(b));
      });
  proxy_ptr = &proxy;
  proxy.start();
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (proxy.batches_completed() < kRounds &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  proxy.stop();
  replica.wait_idle();
  replica.stop();

  ASSERT_GE(proxy.batches_completed(), kRounds)
      << "proxy completed " << proxy.batches_completed() << " of " << kRounds
      << " rounds within 10 s";
  EXPECT_EQ(proxy.commands_completed(), proxy.batches_completed() * kBatchSize);
  EXPECT_GT(proxy.latency().count(), 0u);

  // A retransmission resends its round's batch unchanged; only first sends
  // are rounds. stop() may cut the last round short after its broadcast.
  std::vector<std::uint64_t> next_seq(kClients, 1);
  std::uint64_t rounds = 0;
  for (const Batch& b : sent) {
    if (b.is_retransmission()) continue;
    ++rounds;
    EXPECT_EQ(b.proxy_id(), kProxyId);
    ASSERT_EQ(b.size(), kBatchSize) << "round " << rounds;
    for (std::size_t j = 0; j < b.size(); ++j) {
      const Command& c = b.commands()[j];
      const std::size_t local = j % kClients;
      EXPECT_EQ(c.client_id, kProxyId * kClients + local) << "round " << rounds;
      EXPECT_EQ(c.sequence, next_seq[local]++) << "round " << rounds;
    }
  }
  EXPECT_GE(rounds, proxy.batches_completed());
  EXPECT_LE(rounds, proxy.batches_completed() + 1);
}

TEST(Proxy, AttachesBitmapWhenConfigured) {
  BitmapConfig bitmap;
  bitmap.bits = 1024;
  consensus::LocalBroadcast broadcast;
  ConsensusAdapter order(broadcast, bitmap);
  std::atomic<bool> saw_bitmap{false};
  std::atomic<bool> got_batch{false};
  order.subscribe_replica([&](BatchPtr b) {
    saw_bitmap.store(b->has_bitmap());
    got_batch.store(true);
  });

  Proxy::Config pcfg;
  pcfg.formation.batch_size = 5;
  pcfg.formation.use_bitmap = true;
  pcfg.formation.bitmap = bitmap;
  Proxy proxy(
      pcfg,
      [](std::uint64_t, std::uint64_t seq) {
        Command c;
        c.type = OpType::kUpdate;
        c.key = seq;
        return c;
      },
      [&](std::unique_ptr<Batch> b) { order.broadcast(std::move(b)); });
  proxy.start();
  // The proxy blocks on responses that never come; it must still have
  // broadcast its first batch.
  for (int i = 0; i < 100 && !got_batch.load(); ++i) std::this_thread::sleep_for(5ms);
  proxy.stop();  // releases the stuck closed loop
  EXPECT_TRUE(got_batch.load());
  EXPECT_TRUE(saw_bitmap.load());
}

TEST(Proxy, DuplicateResponsesCountedOnce) {
  consensus::LocalBroadcast broadcast;
  ConsensusAdapter order(broadcast, BitmapConfig{});
  kv::KvStore store_a, store_b;
  kv::KvService svc_a(store_a), svc_b(store_b);
  Proxy* proxy_ptr = nullptr;
  auto sink = [&](const Response& r) {
    if (proxy_ptr) proxy_ptr->on_response(r);
  };
  Replica::Config rcfg;
  Replica ra(rcfg, svc_a, sink), rb(rcfg, svc_b, sink);
  order.subscribe_replica([&](BatchPtr b) { ra.deliver(b); });
  order.subscribe_replica([&](BatchPtr b) { rb.deliver(b); });
  ra.start();
  rb.start();

  Proxy::Config pcfg;
  pcfg.formation.batch_size = 8;
  std::atomic<std::uint64_t> next_key{1};
  Proxy proxy(
      pcfg,
      [&](std::uint64_t, std::uint64_t) {
        Command c;
        c.type = OpType::kUpdate;
        c.key = next_key.fetch_add(1);
        return c;
      },
      [&](std::unique_ptr<Batch> b) { order.broadcast(std::move(b)); });
  proxy_ptr = &proxy;
  proxy.start();
  std::this_thread::sleep_for(100ms);
  proxy.stop();
  ra.wait_idle();
  rb.wait_idle();
  ra.stop();
  rb.stop();

  // Both replicas executed everything; the proxy made progress and its
  // command count is exactly batches * batch_size (each op counted once
  // despite two responses per command).
  EXPECT_GT(proxy.batches_completed(), 0u);
  EXPECT_EQ(proxy.commands_completed(), proxy.batches_completed() * 8);
  EXPECT_EQ(store_a.digest(), store_b.digest());
}

}  // namespace
}  // namespace psmr::smr
