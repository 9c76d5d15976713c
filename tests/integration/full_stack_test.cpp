// End-to-end integration: client proxies -> consensus (Paxos over the
// simulated network) -> parallel replicas (Algorithm 1 scheduler) ->
// KV store -> responses, with cross-replica consistency checks,
// linearizability checking, and fault injection.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "chaos/chaos_util.hpp"
#include "consensus/group.hpp"
#include "kvstore/kvstore.hpp"
#include "kvstore/lock_service.hpp"
#include "smr/consensus_adapter.hpp"
#include "smr/history.hpp"
#include "smr/proxy.hpp"
#include "smr/replica.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace psmr {
namespace {

using namespace std::chrono_literals;

struct Deployment {
  smr::BitmapConfig bitmap;
  consensus::GroupConfig group_cfg;
  std::unique_ptr<consensus::PaxosGroup> group;
  std::unique_ptr<smr::ConsensusAdapter> adapter;
  std::vector<std::unique_ptr<kv::KvStore>> stores;
  std::vector<std::unique_ptr<kv::KvService>> services;
  std::vector<std::unique_ptr<smr::Replica>> replicas;
  std::vector<std::unique_ptr<smr::Proxy>> proxies;

  explicit Deployment(unsigned num_replicas, core::ConflictMode mode,
                      consensus::GroupConfig cfg = {}) {
    bitmap.bits = 102400;
    group_cfg = cfg;
    group = std::make_unique<consensus::PaxosGroup>(group_cfg);
    adapter = std::make_unique<smr::ConsensusAdapter>(*group, bitmap);
    for (unsigned r = 0; r < num_replicas; ++r) {
      stores.push_back(std::make_unique<kv::KvStore>());
      services.push_back(std::make_unique<kv::KvService>(*stores.back()));
      smr::Replica::Config rcfg;
      rcfg.replica_id = r;
      rcfg.scheduler.workers = 4;
      rcfg.scheduler.mode = mode;
      replicas.push_back(std::make_unique<smr::Replica>(
          rcfg, *services.back(), [this](const smr::Response& resp) {
            const std::size_t idx = static_cast<std::size_t>(resp.client_id) / 1024;
            if (idx < proxies.size()) proxies[idx]->on_response(resp);
          }));
      smr::Replica* replica = replicas.back().get();
      adapter->subscribe_replica([replica](smr::BatchPtr b) { replica->deliver(b); });
    }
  }

  void add_proxy(std::size_t batch_size, bool use_bitmap,
                 smr::Proxy::CommandSource source) {
    smr::Proxy::Config pcfg;
    pcfg.proxy_id = proxies.size();
    pcfg.formation.batch_size = batch_size;
    pcfg.num_clients = 1024;
    pcfg.formation.use_bitmap = use_bitmap;
    pcfg.formation.bitmap = bitmap;
    proxies.push_back(std::make_unique<smr::Proxy>(
        pcfg, std::move(source),
        [this](std::unique_ptr<smr::Batch> b) { adapter->broadcast(std::move(b)); }));
  }

  void start() {
    group->start();
    for (auto& r : replicas) r->start();
    for (auto& p : proxies) p->start();
  }

  void stop() {
    for (auto& p : proxies) p->stop();
    // Learners may still be gap-recovering lost Decides: drain until every
    // replica has consumed the same delivery prefix (the cap fails the test).
    std::vector<smr::Replica*> rs;
    for (auto& r : replicas) rs.push_back(r.get());
    chaos::drain_replicas(rs);
    group->stop();
    for (auto& r : replicas) r->stop();
  }
};

TEST(FullStack, TwoReplicasConvergeOverPaxos) {
  Deployment d(2, core::ConflictMode::kBitmap);
  util::Xoshiro256 rng(1);
  d.add_proxy(20, /*use_bitmap=*/true, [&rng](std::uint64_t, std::uint64_t) {
    smr::Command c;
    c.type = smr::OpType::kUpdate;
    c.key = rng.next_below(1000);
    c.value = rng();
    return c;
  });
  d.start();
  std::this_thread::sleep_for(500ms);
  d.stop();

  EXPECT_GT(d.proxies[0]->commands_completed(), 0u);
  EXPECT_GT(d.stores[0]->size(), 0u);
  EXPECT_EQ(d.stores[0]->snapshot(), d.stores[1]->snapshot());
}

TEST(FullStack, ThreeReplicasThreeProxiesKeyMode) {
  Deployment d(3, core::ConflictMode::kKeysNested);
  // One generator per proxy: each proxy's source runs on that proxy's own
  // thread, so a shared generator would be a data race.
  std::vector<util::Xoshiro256> rngs{util::Xoshiro256(2), util::Xoshiro256(3),
                                     util::Xoshiro256(4)};
  for (auto& rng : rngs) {
    d.add_proxy(10, /*use_bitmap=*/false, [&rng](std::uint64_t, std::uint64_t) {
      smr::Command c;
      c.type = smr::OpType::kUpdate;
      c.key = rng.next_below(100);  // plenty of cross-proxy conflicts
      c.value = rng();
      return c;
    });
  }
  d.start();
  std::this_thread::sleep_for(500ms);
  d.stop();

  EXPECT_EQ(d.stores[0]->snapshot(), d.stores[1]->snapshot());
  EXPECT_EQ(d.stores[0]->snapshot(), d.stores[2]->snapshot());
  std::uint64_t total = 0;
  for (auto& p : d.proxies) total += p->commands_completed();
  EXPECT_GT(total, 0u);
}

TEST(FullStack, SurvivesAcceptorCrashMidRun) {
  Deployment d(2, core::ConflictMode::kBitmap);
  util::Xoshiro256 rng(3);
  d.add_proxy(10, true, [&rng](std::uint64_t, std::uint64_t) {
    smr::Command c;
    c.type = smr::OpType::kUpdate;
    c.key = rng.next_below(500);
    c.value = rng();
    return c;
  });
  d.start();
  std::this_thread::sleep_for(150ms);
  const std::uint64_t before = d.proxies[0]->commands_completed();
  d.group->crash_acceptor(1);
  std::this_thread::sleep_for(400ms);
  d.stop();
  EXPECT_GT(d.proxies[0]->commands_completed(), before)
      << "no progress after a minority acceptor crash";
  EXPECT_EQ(d.stores[0]->snapshot(), d.stores[1]->snapshot());
}

TEST(FullStack, SurvivesLeaderCrashMidRun) {
  consensus::GroupConfig gcfg;
  gcfg.proposers = 2;
  Deployment d(2, core::ConflictMode::kBitmap, gcfg);
  util::Xoshiro256 rng(4);
  d.add_proxy(10, true, [&rng](std::uint64_t, std::uint64_t) {
    smr::Command c;
    c.type = smr::OpType::kUpdate;
    c.key = rng.next_below(500);
    c.value = rng();
    return c;
  });
  d.start();
  std::this_thread::sleep_for(150ms);
  const int leader = d.group->leader_index();
  ASSERT_GE(leader, 0);
  d.group->crash_proposer(static_cast<unsigned>(leader));
  std::this_thread::sleep_for(800ms);  // election + catch-up
  const std::uint64_t after_crash = d.proxies[0]->commands_completed();
  std::this_thread::sleep_for(300ms);
  const std::uint64_t later = d.proxies[0]->commands_completed();
  d.stop();
  EXPECT_GT(later, after_crash) << "no progress after leader failover";
  EXPECT_EQ(d.stores[0]->snapshot(), d.stores[1]->snapshot());
}

TEST(FullStack, LossyNetworkStillConverges) {
  consensus::GroupConfig gcfg;
  gcfg.default_link.drop_probability = 0.02;
  Deployment d(2, core::ConflictMode::kBitmap, gcfg);
  util::Xoshiro256 rng(5);
  d.add_proxy(10, true, [&rng](std::uint64_t, std::uint64_t) {
    smr::Command c;
    c.type = smr::OpType::kUpdate;
    c.key = rng.next_below(200);
    c.value = rng();
    return c;
  });
  d.start();
  std::this_thread::sleep_for(700ms);
  d.stop();
  EXPECT_GT(d.proxies[0]->commands_completed(), 0u);
  EXPECT_EQ(d.stores[0]->snapshot(), d.stores[1]->snapshot());
}

TEST(FullStack, LockServiceGrantsConsistentlyOverPaxos) {
  // The coordination workload of the paper's introduction, end to end:
  // clients race for locks through real consensus; both replicas must
  // agree on every owner.
  consensus::GroupConfig gcfg;
  consensus::PaxosGroup group(gcfg);
  smr::BitmapConfig bitmap;
  bitmap.bits = 102400;
  smr::ConsensusAdapter adapter(group, bitmap);

  kv::LockTable table_a, table_b;
  kv::LockService service_a(table_a), service_b(table_b);
  smr::Replica::Config rcfg;
  rcfg.scheduler.workers = 4;
  rcfg.scheduler.mode = core::ConflictMode::kKeysNested;
  smr::Replica replica_a(rcfg, service_a, [](const smr::Response&) {});
  smr::Replica replica_b(rcfg, service_b, [](const smr::Response&) {});
  adapter.subscribe_replica([&](smr::BatchPtr b) { replica_a.deliver(b); });
  adapter.subscribe_replica([&](smr::BatchPtr b) { replica_b.deliver(b); });
  group.start();
  replica_a.start();
  replica_b.start();

  util::Xoshiro256 rng(77);
  std::uint64_t seq = 0;
  for (int i = 0; i < 200; ++i) {
    smr::Command c;
    c.type = rng.next_bool(0.3) ? smr::OpType::kRemove : smr::OpType::kCreate;
    c.key = rng.next_below(6);             // 6 locks
    c.client_id = rng.next_below(10);      // 10 racing clients
    c.sequence = ++seq;
    smr::Batch batch(std::vector<smr::Command>{c});
    adapter.broadcast(std::make_unique<smr::Batch>(std::move(batch)));
  }
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (std::chrono::steady_clock::now() < deadline) {
    replica_a.wait_idle();
    replica_b.wait_idle();
    if (replica_a.stats().counter("scheduler.commands_executed") >= 200 &&
        replica_b.stats().counter("scheduler.commands_executed") >= 200) {
      break;
    }
    std::this_thread::sleep_for(10ms);
  }
  group.stop();
  replica_a.stop();
  replica_b.stop();

  EXPECT_EQ(replica_a.stats().counter("scheduler.commands_executed"), 200u);
  EXPECT_EQ(table_a.snapshot(), table_b.snapshot());
  EXPECT_EQ(table_a.digest(), table_b.digest());
}

}  // namespace
}  // namespace psmr
