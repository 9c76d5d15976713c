// Distributed lock manager on PSMR — the coordination-service workload the
// paper's introduction motivates (Chubby / ZooKeeper, §I).
//
// Ten clients race to acquire a small set of named locks through two
// replicas. Every replica grants each lock to the SAME winner (the client
// whose acquire was delivered first by the atomic broadcast), because
// acquire/release commands on a lock conflict and the scheduler serializes
// them in delivery order; operations on different locks proceed in
// parallel.
//
//   ./build/examples/lock_manager
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "consensus/group.hpp"
#include "kvstore/lock_service.hpp"
#include "smr/consensus_adapter.hpp"
#include "smr/replica.hpp"
#include "util/rng.hpp"

using namespace std::chrono_literals;

int main() {
  using namespace psmr;

  // No proxy bitmaps here, so the adapter's BitmapConfig is never used.
  consensus::LocalBroadcast broadcast;
  smr::ConsensusAdapter order(broadcast, smr::BitmapConfig{});
  kv::LockTable table_a, table_b;
  kv::LockService service_a(table_a), service_b(table_b);

  // Track the grants replica A reports, per lock.
  std::mutex mu;
  std::map<smr::Key, std::vector<std::pair<std::uint64_t, smr::Status>>> grant_log;
  auto sink_a = [&](const smr::Response& r) {
    std::lock_guard lk(mu);
    // (populated below via the command stream; responses only confirm)
    (void)r;
  };

  smr::Replica::Config rcfg;
  rcfg.scheduler.workers = 4;
  rcfg.scheduler.mode = core::ConflictMode::kKeysNested;
  smr::Replica replica_a(rcfg, service_a, sink_a);
  smr::Replica replica_b(rcfg, service_b, [](const smr::Response&) {});
  order.subscribe_replica([&](smr::BatchPtr b) { replica_a.deliver(b); });
  order.subscribe_replica([&](smr::BatchPtr b) { replica_b.deliver(b); });
  replica_a.start();
  replica_b.start();

  // Ten clients, five locks, a burst of racing acquires then releases.
  constexpr int kClients = 10;
  constexpr int kLocks = 5;
  util::Xoshiro256 rng(7);
  std::uint64_t seq = 0;
  auto submit = [&](smr::OpType type, smr::Key lock, std::uint64_t client) {
    smr::Command c;
    c.type = type;
    c.key = lock;
    c.client_id = client;
    c.sequence = ++seq;
    auto batch = std::make_unique<smr::Batch>(std::vector<smr::Command>{c});
    order.broadcast(std::move(batch));
  };

  std::printf("Round 1: every client tries to grab every lock (random order)\n");
  std::vector<std::pair<std::uint64_t, smr::Key>> attempts;
  for (std::uint64_t c = 1; c <= kClients; ++c) {
    for (smr::Key l = 1; l <= kLocks; ++l) attempts.emplace_back(c, l);
  }
  // Shuffle attempts deterministically.
  for (std::size_t i = attempts.size(); i > 1; --i) {
    std::swap(attempts[i - 1], attempts[rng.next_below(i)]);
  }
  for (const auto& [client, lock] : attempts) {
    submit(smr::OpType::kCreate, lock, client);
  }
  replica_a.wait_idle();
  replica_b.wait_idle();

  std::printf("\nLock table after the race (identical at both replicas):\n");
  for (const auto& [lock, owner] : table_a.snapshot()) {
    std::printf("  lock %llu -> client %llu\n", static_cast<unsigned long long>(lock),
                static_cast<unsigned long long>(owner));
  }
  std::printf("replica digests: A=%016llx B=%016llx %s\n",
              static_cast<unsigned long long>(table_a.digest()),
              static_cast<unsigned long long>(table_b.digest()),
              table_a.digest() == table_b.digest() ? "(match)" : "(MISMATCH!)");

  std::printf("\nRound 2: winners release; a waiting client re-acquires\n");
  const auto held = table_a.snapshot();
  for (const auto& [lock, owner] : held) {
    submit(smr::OpType::kRemove, lock, owner);      // winner releases
    submit(smr::OpType::kCreate, lock, owner % kClients + 1);  // next client grabs
  }
  replica_a.wait_idle();
  replica_b.wait_idle();
  for (const auto& [lock, owner] : table_a.snapshot()) {
    std::printf("  lock %llu -> client %llu\n", static_cast<unsigned long long>(lock),
                static_cast<unsigned long long>(owner));
  }

  replica_a.stop();
  replica_b.stop();
  if (table_a.digest() != table_b.digest()) {
    std::printf("FAIL: replicas diverged\n");
    return 1;
  }
  std::printf("\nOK: %zu locks held, replicas agree on every owner.\n",
              table_a.held_count());
  return 0;
}
