// End-to-end duplicate-delivery chaos: the simulated network duplicates and
// drops messages (LinkConfig::duplicate_probability / drop_probability > 0)
// while an aggressively-retrying proxy re-broadcasts slow batches. Every
// layer above must still provide exactly-once execution: the session tables
// absorb retransmissions and duplicated deliveries, replicas converge to
// identical stores, and the closed loop completes every command exactly
// once at the client side.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

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

TEST(DuplicateDelivery, ExactlyOnceUnderDuplicatingLossyLinks) {
  for (const std::uint64_t seed : {5u, 17u}) {
    consensus::GroupConfig gcfg;
    gcfg.seed = seed;
    gcfg.default_link.duplicate_probability = 0.25;
    gcfg.default_link.drop_probability = 0.08;
    consensus::PaxosGroup group(gcfg);
    smr::BitmapConfig bitmap;
    smr::ConsensusAdapter adapter(group, bitmap);

    constexpr std::size_t kBatchSize = 12;
    kv::KvStore store_a, store_b;
    kv::KvService svc_a(store_a), svc_b(store_b);
    testing::ExecutionCounter counter_a(svc_a), counter_b(svc_b);

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
    adapter.subscribe_replica([&](smr::BatchPtr b) { replica_a.deliver(std::move(b)); });
    adapter.subscribe_replica([&](smr::BatchPtr b) { replica_b.deliver(std::move(b)); });

    // A short deadline + low backoff cap forces real retransmissions under
    // the lossy links: duplicates reach the replicas both from the network
    // and from the retry layer.
    smr::Proxy::Config pcfg;
    pcfg.proxy_id = 0;
    pcfg.formation.batch_size = kBatchSize;
    pcfg.num_clients = 6;
    pcfg.reliability.retry.initial = 25ms;
    pcfg.reliability.retry.max = 150ms;
    util::Xoshiro256 rng(seed);
    smr::Proxy proxy(
        pcfg,
        [&](std::uint64_t, std::uint64_t) {
          smr::Command c;
          c.type = smr::OpType::kUpdate;
          c.key = rng.next_below(300);
          c.value = rng();
          return c;
        },
        [&](std::unique_ptr<smr::Batch> b) { adapter.broadcast(std::move(b)); });
    proxy_ptr = &proxy;

    group.start();
    replica_a.start();
    replica_b.start();
    proxy.start();

    const auto deadline = std::chrono::steady_clock::now() + 20s;
    while (std::chrono::steady_clock::now() < deadline && proxy.batches_completed() < 8) {
      std::this_thread::sleep_for(20ms);
    }
    proxy.stop();
    chaos::drain_replicas({&replica_a, &replica_b});
    group.stop();
    replica_a.stop();
    replica_b.stop();

    // Exactly-once at every replica: no tracked command ran twice, and both
    // replicas agree on exactly which commands ran.
    EXPECT_TRUE(counter_a.over_executed().empty()) << "seed " << seed;
    EXPECT_TRUE(counter_b.over_executed().empty()) << "seed " << seed;
    EXPECT_EQ(counter_a.max_executions(), 1u);
    EXPECT_EQ(counter_b.max_executions(), 1u);
    EXPECT_EQ(counter_a.distinct_commands(), counter_b.distinct_commands());

    // Convergence: bit-identical stores and session tables.
    EXPECT_EQ(store_a.snapshot(), store_b.snapshot()) << "seed " << seed;
    EXPECT_EQ(replica_a.sessions().digest(), replica_b.sessions().digest());

    // The closed loop made progress and completed every command of every
    // completed batch exactly once despite the duplicate/lossy links.
    EXPECT_GE(proxy.batches_completed(), 8u) << "seed " << seed;
    EXPECT_EQ(proxy.commands_completed(), proxy.batches_completed() * kBatchSize);
  }
}

}  // namespace
}  // namespace psmr
