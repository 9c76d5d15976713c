// Message-level tests of the acceptor role — the Paxos safety core:
// promises are monotone, accepts below the promised ballot are rejected,
// and Phase-1 recovery reports exactly what was accepted.
#include "consensus/acceptor.hpp"

#include <gtest/gtest.h>

#include <chrono>

namespace psmr::consensus {
namespace {

using namespace std::chrono_literals;

Value bytes(std::uint8_t b) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::vector<std::uint8_t>{b});
}

struct AcceptorFixture : ::testing::Test {
  PaxosNetwork net;
  PaxosEndpoint* me = net.register_process(1);        // plays the proposer
  PaxosEndpoint* acceptor_ep = net.register_process(200);
  Acceptor acceptor{net, acceptor_ep};

  void SetUp() override { acceptor.start(); }
  void TearDown() override {
    acceptor.stop();
    net.shutdown();
  }

  template <typename M>
  void send(M msg) {
    net.send(1, 200, Message{std::move(msg)});
  }

  std::optional<Message> recv() {
    auto env = me->recv_for(1000ms);
    if (!env) return std::nullopt;
    return env->msg;
  }
};

TEST_F(AcceptorFixture, PromisesHigherBallot) {
  send(Prepare{Ballot{1, 1}, 1});
  auto m = recv();
  ASSERT_TRUE(m.has_value());
  const auto* promise = std::get_if<Promise>(&*m);
  ASSERT_NE(promise, nullptr);
  EXPECT_EQ(promise->ballot, (Ballot{1, 1}));
  EXPECT_TRUE(promise->accepted.empty());
  EXPECT_EQ(acceptor.promised(), (Ballot{1, 1}));
}

TEST_F(AcceptorFixture, NacksLowerPrepare) {
  send(Prepare{Ballot{5, 1}, 1});
  ASSERT_TRUE(recv().has_value());  // promise for ballot 5
  send(Prepare{Ballot{2, 1}, 1});
  auto m = recv();
  ASSERT_TRUE(m.has_value());
  const auto* nack = std::get_if<Nack>(&*m);
  ASSERT_NE(nack, nullptr);
  EXPECT_EQ(nack->promised, (Ballot{5, 1}));
  EXPECT_EQ(acceptor.promised(), (Ballot{5, 1}));  // unchanged
}

TEST_F(AcceptorFixture, AcceptsAtOrAbovePromise) {
  send(Prepare{Ballot{3, 1}, 1});
  ASSERT_TRUE(recv().has_value());
  send(Accept{Ballot{3, 1}, /*instance=*/7, /*request_id=*/1, bytes(0xAB)});
  auto m = recv();
  ASSERT_TRUE(m.has_value());
  const auto* accepted = std::get_if<Accepted>(&*m);
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(accepted->instance, 7u);
  EXPECT_EQ(acceptor.accepted_count(), 1u);
}

TEST_F(AcceptorFixture, RejectsAcceptBelowPromise) {
  send(Prepare{Ballot{9, 1}, 1});
  ASSERT_TRUE(recv().has_value());
  send(Accept{Ballot{4, 1}, 1, /*request_id=*/1, bytes(0x01)});
  auto m = recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_NE(std::get_if<Nack>(&*m), nullptr);
  EXPECT_EQ(acceptor.accepted_count(), 0u);
}

TEST_F(AcceptorFixture, AcceptWithoutPriorPrepareRaisesPromise) {
  // Multi-Paxos steady state: the leader skips Phase 1 for new instances;
  // an Accept at a ballot >= promised both accepts and raises the promise.
  send(Accept{Ballot{2, 1}, 3, /*request_id=*/1, bytes(0x02)});
  auto m = recv();
  ASSERT_TRUE(m.has_value());
  EXPECT_NE(std::get_if<Accepted>(&*m), nullptr);
  EXPECT_EQ(acceptor.promised(), (Ballot{2, 1}));
}

TEST_F(AcceptorFixture, PromiseReportsAcceptedEntriesFromFirstInstance) {
  // Accept values at instances 2 and 5 under ballot 1; a Prepare at ballot
  // 2 with first_instance=3 must report ONLY instance 5.
  send(Accept{Ballot{1, 1}, 2, /*request_id=*/22, bytes(0x22)});
  ASSERT_TRUE(recv().has_value());
  send(Accept{Ballot{1, 1}, 5, /*request_id=*/55, bytes(0x55)});
  ASSERT_TRUE(recv().has_value());

  send(Prepare{Ballot{2, 1}, /*first_instance=*/3});
  auto m = recv();
  ASSERT_TRUE(m.has_value());
  const auto* promise = std::get_if<Promise>(&*m);
  ASSERT_NE(promise, nullptr);
  ASSERT_EQ(promise->accepted.size(), 1u);
  EXPECT_EQ(promise->accepted[0].instance, 5u);
  EXPECT_EQ(promise->accepted[0].vballot, (Ballot{1, 1}));
  EXPECT_EQ(promise->accepted[0].request_id, 55u);  // recovery keeps the dedup key
  ASSERT_NE(promise->accepted[0].value, nullptr);
  EXPECT_EQ(promise->accepted[0].value->at(0), 0x55);
}

TEST_F(AcceptorFixture, ReacceptUnderHigherBallotOverwrites) {
  send(Accept{Ballot{1, 1}, 4, /*request_id=*/1, bytes(0x01)});
  ASSERT_TRUE(recv().has_value());
  send(Accept{Ballot{3, 1}, 4, /*request_id=*/2, bytes(0x02)});
  ASSERT_TRUE(recv().has_value());
  send(Prepare{Ballot{4, 1}, 1});
  auto m = recv();
  const auto* promise = std::get_if<Promise>(&*m);
  ASSERT_NE(promise, nullptr);
  ASSERT_EQ(promise->accepted.size(), 1u);
  EXPECT_EQ(promise->accepted[0].vballot, (Ballot{3, 1}));
  EXPECT_EQ(promise->accepted[0].request_id, 2u);
  EXPECT_EQ(promise->accepted[0].value->at(0), 0x02);
}

}  // namespace
}  // namespace psmr::consensus
