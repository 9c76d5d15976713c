// Quickstart: a parallel-SMR replicated key-value store in ~80 lines.
//
// Builds two replicas behind an in-process atomic broadcast, drives them with
// one client proxy using the paper's scheduler (batches + bitmap conflict
// detection), and shows that both replicas converge to the same state while
// executing independent commands in parallel.
//
//   ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "consensus/group.hpp"
#include "kvstore/kvstore.hpp"
#include "smr/consensus_adapter.hpp"
#include "smr/proxy.hpp"
#include "smr/replica.hpp"
#include "util/rng.hpp"

int main() {
  using namespace psmr;

  // 1. A total-order source: the in-process atomic broadcast behind the
  //    same adapter the Paxos stack plugs into (see
  //    examples/replicated_kvstore.cpp). Replicas rebuild each batch's
  //    bitmap with the proxy's BitmapConfig.
  smr::BitmapConfig bitmap;
  bitmap.bits = 1024000;
  consensus::LocalBroadcast broadcast;
  smr::ConsensusAdapter order(broadcast, bitmap);

  // 2. Two replicas, each with its own KV store and a 4-worker scheduler
  //    using bitmap conflict detection.
  kv::KvStore store_a, store_b;
  kv::KvService service_a(store_a), service_b(store_b);

  smr::Replica::Config rcfg;
  rcfg.scheduler.workers = 4;
  rcfg.scheduler.mode = core::ConflictMode::kBitmap;

  // Responses route back to the proxy; the proxy counts the FIRST reply per
  // command, so replica B's duplicates are ignored automatically.
  smr::Proxy* proxy_ptr = nullptr;
  auto sink = [&](const smr::Response& r) {
    if (proxy_ptr != nullptr) proxy_ptr->on_response(r);
  };

  smr::Replica replica_a(rcfg, service_a, sink);
  rcfg.replica_id = 1;
  smr::Replica replica_b(rcfg, service_b, sink);

  order.subscribe_replica([&](smr::BatchPtr b) { replica_a.deliver(b); });
  order.subscribe_replica([&](smr::BatchPtr b) { replica_b.deliver(b); });
  replica_a.start();
  replica_b.start();

  // 3. One client proxy batching 100 commands per request, bitmap computed
  //    client-side (paper §VI).
  smr::Proxy::Config pcfg;
  pcfg.proxy_id = 0;
  pcfg.formation.batch_size = 100;
  pcfg.num_clients = 32;
  pcfg.formation.use_bitmap = true;
  pcfg.formation.bitmap = bitmap;

  util::Xoshiro256 rng(2024);
  auto source = [&](std::uint64_t, std::uint64_t) {
    smr::Command c;
    c.type = smr::OpType::kUpdate;
    c.key = rng.next_below(100'000);
    c.value = rng();
    return c;
  };

  smr::Proxy proxy(pcfg, source, [&](std::unique_ptr<smr::Batch> b) {
    order.broadcast(std::move(b));
  });
  proxy_ptr = &proxy;

  // 4. Run for half a second, then drain.
  proxy.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  proxy.stop();
  replica_a.wait_idle();
  replica_b.wait_idle();
  replica_a.stop();
  replica_b.stop();

  // 5. Both replicas must hold identical state.
  std::printf("commands completed : %llu\n",
              static_cast<unsigned long long>(proxy.commands_completed()));
  std::printf("replica A: %zu keys, digest %016llx\n", store_a.size(),
              static_cast<unsigned long long>(store_a.digest()));
  std::printf("replica B: %zu keys, digest %016llx\n", store_b.size(),
              static_cast<unsigned long long>(store_b.digest()));
  std::printf("avg dependency-graph size at replica A: %.2f\n",
              replica_a.stats().gauge("graph.size_at_insert.avg"));
  if (store_a.digest() != store_b.digest()) {
    std::printf("FAIL: replicas diverged!\n");
    return 1;
  }
  std::printf("OK: replicas converged.\n");
  return 0;
}
