// Message-level tests of the learner role: strict in-order delivery,
// request dedup, no-op skipping, and gap-triggered retransmission requests.
#include "consensus/learner.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <vector>

namespace psmr::consensus {
namespace {

using namespace std::chrono_literals;

struct LearnerFixture : ::testing::Test {
  PaxosNetwork net;
  PaxosEndpoint* proposer = net.register_process(100);
  PaxosEndpoint* learner_ep = net.register_process(300);

  std::mutex mu;
  std::vector<std::pair<std::uint64_t, std::uint8_t>> delivered;  // (seq, payload[0])
  std::vector<Value> delivered_values;

  std::unique_ptr<Learner> learner;

  void start(std::chrono::milliseconds gap_timeout = 50ms, InstanceId first = 1) {
    learner = std::make_unique<Learner>(
        net, learner_ep, std::vector<net::ProcessId>{100},
        [this](std::uint64_t seq, Value v) {
          std::lock_guard lk(mu);
          delivered.emplace_back(seq, v && !v->empty() ? v->at(0) : 0);
          delivered_values.push_back(v);
        },
        gap_timeout, first);
    learner->start();
  }

  void TearDown() override {
    if (learner) learner->stop();
    net.shutdown();
  }

  void decide(InstanceId instance, std::uint64_t request_id, std::uint8_t payload) {
    net.send(100, 300,
             Message{Decide{instance, request_id,
                            std::make_shared<const std::vector<std::uint8_t>>(
                                std::vector<std::uint8_t>{payload})}});
  }

  std::size_t delivered_count() {
    std::lock_guard lk(mu);
    return delivered.size();
  }

  template <typename F>
  bool eventually(F cond, std::chrono::milliseconds timeout = 3000ms) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
      if (cond()) return true;
      std::this_thread::sleep_for(2ms);
    }
    return cond();
  }
};

TEST_F(LearnerFixture, DeliversContiguousPrefixInOrder) {
  start();
  decide(1, 11, 0xA);
  decide(2, 12, 0xB);
  decide(3, 13, 0xC);
  ASSERT_TRUE(eventually([&] { return delivered_count() == 3; }));
  std::lock_guard lk(mu);
  EXPECT_EQ(delivered[0], (std::pair<std::uint64_t, std::uint8_t>{1, 0xA}));
  EXPECT_EQ(delivered[1], (std::pair<std::uint64_t, std::uint8_t>{2, 0xB}));
  EXPECT_EQ(delivered[2], (std::pair<std::uint64_t, std::uint8_t>{3, 0xC}));
}

TEST_F(LearnerFixture, BuffersOutOfOrderDecides) {
  start();
  decide(3, 13, 0xC);
  decide(2, 12, 0xB);
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(delivered_count(), 0u);  // hole at 1
  decide(1, 11, 0xA);
  ASSERT_TRUE(eventually([&] { return delivered_count() == 3; }));
  std::lock_guard lk(mu);
  EXPECT_EQ(delivered[0].second, 0xA);
  EXPECT_EQ(delivered[1].second, 0xB);
  EXPECT_EQ(delivered[2].second, 0xC);
}

TEST_F(LearnerFixture, DuplicateInstanceIgnored) {
  start();
  decide(1, 11, 0xA);
  decide(1, 11, 0xA);
  decide(2, 12, 0xB);
  ASSERT_TRUE(eventually([&] { return delivered_count() == 2; }));
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(delivered_count(), 2u);
}

TEST_F(LearnerFixture, DuplicateRequestIdSkippedButConsumesInstance) {
  // The same request decided in two instances (failover artifact): second
  // occurrence is skipped, later instances still deliver.
  start();
  decide(1, 77, 0xA);
  decide(2, 77, 0xA);  // duplicate request id
  decide(3, 13, 0xC);
  ASSERT_TRUE(eventually([&] { return delivered_count() == 2; }));
  std::lock_guard lk(mu);
  EXPECT_EQ(delivered[0].second, 0xA);
  EXPECT_EQ(delivered[1].second, 0xC);
  EXPECT_EQ(delivered[1].first, 2u);  // application seq stays dense
  EXPECT_EQ(learner->next_instance(), 4u);
}

TEST_F(LearnerFixture, NoopFillerSkipped) {
  start();
  net.send(100, 300, Message{Decide{1, 0, nullptr}});  // no-op
  decide(2, 12, 0xB);
  ASSERT_TRUE(eventually([&] { return delivered_count() == 1; }));
  std::lock_guard lk(mu);
  EXPECT_EQ(delivered[0], (std::pair<std::uint64_t, std::uint8_t>{1, 0xB}));
}

TEST_F(LearnerFixture, NoopBetweenValuesConsumesItsInstanceOnly) {
  // A leader change fills holes with no-ops (request id 0, null value) in
  // the middle of the log: they are skipped, the values around them are
  // delivered with a dense application sequence.
  start();
  decide(1, 11, 0xA);
  net.send(100, 300, Message{Decide{2, 0, nullptr}});
  net.send(100, 300, Message{Decide{3, 0, nullptr}});
  decide(4, 14, 0xD);
  ASSERT_TRUE(eventually([&] { return delivered_count() == 2; }));
  std::lock_guard lk(mu);
  EXPECT_EQ(delivered[0], (std::pair<std::uint64_t, std::uint8_t>{1, 0xA}));
  EXPECT_EQ(delivered[1], (std::pair<std::uint64_t, std::uint8_t>{2, 0xD}));
  EXPECT_EQ(learner->next_instance(), 5u);
}

TEST_F(LearnerFixture, DeliversTheDecidedBufferItself) {
  // The learner hands on the decided value, not a copy of it.
  start();
  const Value v = std::make_shared<const std::vector<std::uint8_t>>(
      std::vector<std::uint8_t>{0x5, 0x6});
  net.send(100, 300, Message{Decide{1, 21, v}});
  ASSERT_TRUE(eventually([&] { return delivered_count() == 1; }));
  std::lock_guard lk(mu);
  EXPECT_EQ(delivered_values[0].get(), v.get());
}

TEST_F(LearnerFixture, GapTriggersLearnRequestToProposers) {
  start(/*gap_timeout=*/30ms);
  decide(5, 15, 0xE);  // instances 1-4 missing
  auto env = proposer->recv_for(2000ms);
  ASSERT_TRUE(env.has_value());
  const auto* req = std::get_if<LearnRequest>(&env->msg);
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->from_instance, 1u);
}

TEST_F(LearnerFixture, IdleProbeCoversTailLoss) {
  // Even with NO buffered decides the learner probes periodically, so a
  // dropped final decide is recovered.
  start(/*gap_timeout=*/30ms);
  auto env = proposer->recv_for(2000ms);
  ASSERT_TRUE(env.has_value());
  EXPECT_NE(std::get_if<LearnRequest>(&env->msg), nullptr);
}

TEST_F(LearnerFixture, MidLogStartDeliversOnlySuffix) {
  start(50ms, /*first_instance=*/11);
  decide(5, 15, 0x5);   // pre-snapshot: must be ignored
  decide(11, 21, 0xB);
  decide(12, 22, 0xC);
  ASSERT_TRUE(eventually([&] { return delivered_count() == 2; }));
  std::lock_guard lk(mu);
  EXPECT_EQ(delivered[0], (std::pair<std::uint64_t, std::uint8_t>{1, 0xB}));
  EXPECT_EQ(delivered[1], (std::pair<std::uint64_t, std::uint8_t>{2, 0xC}));
}

}  // namespace
}  // namespace psmr::consensus
