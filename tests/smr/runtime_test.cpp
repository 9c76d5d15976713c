// Tests for the SMR runtime pieces: Proxy, Replica, SequentialReplica,
// wired in small in-process deployments (LocalBroadcast behind the
// ConsensusAdapter as the total order).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

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

TEST(Proxy, ClosedLoopCompletesBatches) {
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
  pcfg.proxy_id = 0;
  pcfg.formation.batch_size = 10;
  pcfg.num_clients = 4;
  util::Xoshiro256 rng(3);
  Proxy proxy(
      pcfg,
      [&](std::uint64_t, std::uint64_t) {
        Command c;
        c.type = OpType::kUpdate;
        c.key = rng();
        return c;
      },
      [&](std::unique_ptr<Batch> b) { order.broadcast(std::move(b)); });
  proxy_ptr = &proxy;
  proxy.start();
  std::this_thread::sleep_for(100ms);
  proxy.stop();
  replica.wait_idle();
  replica.stop();

  EXPECT_GT(proxy.batches_completed(), 0u);
  EXPECT_EQ(proxy.commands_completed(), proxy.batches_completed() * 10);
  EXPECT_GT(proxy.latency().count(), 0u);
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
