// Replicated KV store over the full consensus stack, with live fault
// injection — the "production shape" of the system (Figure 1(b) with Paxos
// behind the ConsensusAdapter instead of quickstart's in-process
// LocalBroadcast).
//
// Deployment: 3 Paxos acceptors (f=1), 2 proposers (leader + standby),
// 2 service replicas with 4-worker bitmap schedulers, 2 client proxies.
// Mid-run the demo crashes one acceptor, then the current LEADER, and shows
// that the service keeps making progress and both replicas converge.
//
//   ./build/examples/replicated_kvstore
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "consensus/group.hpp"
#include "kvstore/kvstore.hpp"
#include "smr/consensus_adapter.hpp"
#include "smr/proxy.hpp"
#include "smr/replica.hpp"
#include "util/rng.hpp"

using namespace std::chrono_literals;

int main() {
  using namespace psmr;

  // --- consensus group: 3 acceptors, 2 proposers, lossy-ish links -------
  consensus::GroupConfig gcfg;
  gcfg.acceptors = 3;
  gcfg.proposers = 2;
  gcfg.default_link.min_delay_us = 50;
  gcfg.default_link.max_delay_us = 300;
  consensus::PaxosGroup group(gcfg);

  smr::BitmapConfig bitmap;
  bitmap.bits = 1024000;
  smr::ConsensusAdapter adapter(group, bitmap);

  // --- two replicas ------------------------------------------------------
  kv::KvStore store_a, store_b;
  kv::KvService service_a(store_a), service_b(store_b);

  std::vector<std::unique_ptr<smr::Proxy>> proxies;
  auto sink = [&](const smr::Response& r) {
    const std::size_t idx = static_cast<std::size_t>(r.client_id) / 1024;
    if (idx < proxies.size()) proxies[idx]->on_response(r);
  };

  smr::Replica::Config rcfg;
  rcfg.scheduler.workers = 4;
  rcfg.scheduler.mode = core::ConflictMode::kBitmap;
  smr::Replica replica_a(rcfg, service_a, sink);
  rcfg.replica_id = 1;
  smr::Replica replica_b(rcfg, service_b, sink);

  adapter.subscribe_replica([&](smr::BatchPtr b) { replica_a.deliver(b); });
  adapter.subscribe_replica([&](smr::BatchPtr b) { replica_b.deliver(b); });

  // --- two client proxies -------------------------------------------------
  util::Xoshiro256 rng_a(1), rng_b(2);
  auto make_source = [](util::Xoshiro256& rng) {
    return [&rng](std::uint64_t, std::uint64_t) {
      smr::Command c;
      c.type = smr::OpType::kUpdate;
      c.key = rng.next_below(50'000);
      c.value = rng();
      return c;
    };
  };
  for (unsigned p = 0; p < 2; ++p) {
    smr::Proxy::Config pcfg;
    pcfg.proxy_id = p;
    pcfg.formation.batch_size = 50;
    pcfg.num_clients = 1024;
    pcfg.formation.use_bitmap = true;
    pcfg.formation.bitmap = bitmap;
    proxies.push_back(std::make_unique<smr::Proxy>(
        pcfg, make_source(p == 0 ? rng_a : rng_b),
        [&](std::unique_ptr<smr::Batch> b) { adapter.broadcast(std::move(b)); }));
  }

  group.start();
  replica_a.start();
  replica_b.start();
  for (auto& p : proxies) p->start();

  auto completed = [&] {
    std::uint64_t n = 0;
    for (auto& p : proxies) n += p->commands_completed();
    return n;
  };
  auto report = [&](const char* phase) {
    std::printf("%-28s leader=proposer[%d]  commands completed=%llu\n", phase,
                group.leader_index(), static_cast<unsigned long long>(completed()));
  };

  std::this_thread::sleep_for(400ms);
  report("steady state:");

  std::printf("\n>>> crashing acceptor 2 (f=1 of 3 tolerated)\n");
  group.crash_acceptor(2);
  std::this_thread::sleep_for(400ms);
  report("after acceptor crash:");

  const int leader = group.leader_index();
  if (leader >= 0) {
    std::printf("\n>>> crashing the LEADER (proposer %d); standby must take over\n", leader);
    group.crash_proposer(static_cast<unsigned>(leader));
    std::this_thread::sleep_for(900ms);
    report("after leader failover:");
  }

  // --- drain & verify convergence ----------------------------------------
  // After the failover a replica may still be pulling missed decisions via
  // gap recovery (100 ms probe period), so wait until both replicas have
  // consumed the same delivery prefix for four 50 ms polls in a row (10 s
  // cap). A consumed batch was scheduled, answered from the dedup cache, or
  // rejected (Replica::batches_consumed); executed-command counts may differ
  // between replicas, because the dedup fast path fires on one and not the
  // other.
  for (auto& p : proxies) p->stop();
  const auto drain_deadline = std::chrono::steady_clock::now() + 10s;
  std::uint64_t stable = ~std::uint64_t{0};
  int stable_rounds = 0;
  while (stable_rounds < 4 && std::chrono::steady_clock::now() < drain_deadline) {
    std::this_thread::sleep_for(50ms);
    const std::uint64_t a = replica_a.batches_consumed();
    const std::uint64_t b = replica_b.batches_consumed();
    if (a == b && a == stable) {
      ++stable_rounds;
    } else {
      stable_rounds = 0;
      stable = a == b ? a : ~std::uint64_t{0};
    }
  }
  const bool drained = stable_rounds == 4;
  if (drained) {
    replica_a.wait_idle();
    replica_b.wait_idle();
  }
  group.stop();
  replica_a.stop();
  replica_b.stop();
  if (!drained) {
    std::printf("FAIL: replicas did not consume one delivery prefix within 10 s "
                "(A %llu, B %llu batches)\n",
                static_cast<unsigned long long>(replica_a.batches_consumed()),
                static_cast<unsigned long long>(replica_b.batches_consumed()));
    return 1;
  }

  std::printf("\nreplica A: %zu keys, digest %016llx\n", store_a.size(),
              static_cast<unsigned long long>(store_a.digest()));
  std::printf("replica B: %zu keys, digest %016llx\n", store_b.size(),
              static_cast<unsigned long long>(store_b.digest()));
  if (store_a.digest() != store_b.digest()) {
    std::printf("FAIL: replicas diverged!\n");
    return 1;
  }
  std::printf("OK: service survived an acceptor crash and a leader crash; "
              "replicas converged.\n");
  return 0;
}
