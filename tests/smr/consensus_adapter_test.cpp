#include "smr/consensus_adapter.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "consensus/group.hpp"

namespace psmr::smr {
namespace {

std::unique_ptr<Batch> sample_batch(std::size_t n, const BitmapConfig& cfg) {
  std::vector<Command> cmds;
  for (std::size_t i = 0; i < n; ++i) {
    Command c;
    c.type = OpType::kUpdate;
    c.key = i * 31 + 1;
    c.value = i;
    c.client_id = 4;
    c.sequence = i + 1;
    cmds.push_back(c);
  }
  auto b = std::make_unique<Batch>(std::move(cmds));
  b->set_proxy_id(2);
  b->build_bitmap(cfg);
  return b;
}

TEST(ConsensusAdapter, RoundTripsBatchesOverLocalBroadcast) {
  BitmapConfig cfg;
  cfg.bits = 102400;
  consensus::LocalBroadcast lb;
  ConsensusAdapter adapter(lb, cfg);

  std::vector<BatchPtr> delivered_a, delivered_b;
  adapter.subscribe_replica([&](BatchPtr b) { delivered_a.push_back(std::move(b)); });
  adapter.subscribe_replica([&](BatchPtr b) { delivered_b.push_back(std::move(b)); });
  lb.start();

  for (int i = 0; i < 5; ++i) adapter.broadcast(sample_batch(10, cfg));

  ASSERT_EQ(delivered_a.size(), 5u);
  ASSERT_EQ(delivered_b.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    // Atomic-broadcast sequence is stamped on delivery (1-based, dense).
    EXPECT_EQ(delivered_a[i]->sequence(), i + 1);
    EXPECT_EQ(delivered_a[i]->proxy_id(), 2u);
    EXPECT_EQ(delivered_a[i]->size(), 10u);
    EXPECT_TRUE(delivered_a[i]->has_bitmap());
    // Digest rebuilt bit-identically at both replicas.
    EXPECT_EQ(delivered_a[i]->bloom().bitmap(),
              delivered_b[i]->bloom().bitmap());
    EXPECT_EQ(delivered_a[i]->commands(), delivered_b[i]->commands());
  }
}

TEST(ConsensusAdapter, BatchWithoutBitmapStaysWithout) {
  BitmapConfig cfg;
  consensus::LocalBroadcast lb;
  ConsensusAdapter adapter(lb, cfg);
  BatchPtr got;
  adapter.subscribe_replica([&](BatchPtr b) { got = std::move(b); });
  lb.start();

  auto b = std::make_unique<Batch>(std::vector<Command>{});
  adapter.broadcast(std::move(b));
  ASSERT_NE(got, nullptr);
  EXPECT_FALSE(got->has_bitmap());
  EXPECT_TRUE(got->empty());
}

TEST(ConsensusAdapter, MalformedPayloadDropped) {
  BitmapConfig cfg;
  consensus::LocalBroadcast lb;
  ConsensusAdapter adapter(lb, cfg);
  int deliveries = 0;
  adapter.subscribe_replica([&](BatchPtr) { ++deliveries; });
  lb.start();
  lb.broadcast(std::make_shared<const std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>{1, 2, 3}));  // not a batch encoding
  EXPECT_EQ(deliveries, 0);
}

}  // namespace
}  // namespace psmr::smr
