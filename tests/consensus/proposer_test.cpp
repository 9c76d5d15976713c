// Message-level tests of the proposer role: election, Phase-1 value
// recovery, hole filling, step-down on higher ballots, retransmission.
// The fixture simulates acceptors with a pump loop that keeps answering
// Prepares (the proposer re-runs Phase 1 with fresh ballots on timeout, so
// one-shot replies would race its timers).
#include "consensus/proposer.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <vector>

namespace psmr::consensus {
namespace {

using namespace std::chrono_literals;

Value bytes_value(std::uint8_t b) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::vector<std::uint8_t>{b});
}

struct ProposerFixture : ::testing::Test {
  PaxosNetwork net;
  PaxosEndpoint* acceptor0 = net.register_process(200);
  PaxosEndpoint* acceptor1 = net.register_process(201);
  PaxosEndpoint* acceptor2 = net.register_process(202);
  PaxosEndpoint* learner = net.register_process(300);
  PaxosEndpoint* client = net.register_process(1);
  PaxosEndpoint* peer = net.register_process(101);  // silent second proposer
  PaxosEndpoint* proposer_ep = net.register_process(100);
  std::unique_ptr<Proposer> proposer;

  // Simulated acceptor state.
  std::map<net::ProcessId, std::vector<PromiseEntry>> recovered;  // per acceptor
  bool reply_accepts = true;
  std::vector<Accept> accepts_seen;

  void start() {
    ProposerConfig cfg;
    cfg.proposers = {100, 101};
    cfg.acceptors = {200, 201, 202};
    cfg.learners = {300};
    cfg.client = 1;
    cfg.retransmit_timeout = 40ms;
    cfg.heartbeat_interval = 20ms;
    proposer = std::make_unique<Proposer>(net, proposer_ep, cfg);
    proposer->start();
  }

  void TearDown() override {
    if (proposer) proposer->stop();
    net.shutdown();
  }

  /// Services acceptors 0 and 1 (a majority; acceptor 2 stays silent) until
  /// `pred` holds or the deadline passes. Returns pred().
  bool pump_until(const std::function<bool()>& pred,
                  std::chrono::milliseconds timeout = 3000ms) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!pred() && std::chrono::steady_clock::now() < deadline) {
      for (PaxosEndpoint* ep : {acceptor0, acceptor1}) {
        while (auto env = ep->try_recv()) {
          if (const auto* prepare = std::get_if<Prepare>(&env->msg)) {
            net.send(ep->id(), 100,
                     Message{Promise{prepare->ballot, prepare->first_instance,
                                     recovered[ep->id()]}});
          } else if (const auto* accept = std::get_if<Accept>(&env->msg)) {
            accepts_seen.push_back(*accept);
            if (reply_accepts) {
              net.send(ep->id(), 100,
                       Message{Accepted{accept->ballot, accept->instance}});
            }
          }
        }
      }
      std::this_thread::sleep_for(1ms);
    }
    return pred();
  }

  bool saw_accept(InstanceId instance, std::uint64_t want_rid) const {
    for (const Accept& a : accepts_seen) {
      if (a.instance == instance && a.request_id == want_rid) return true;
    }
    return false;
  }
};

TEST_F(ProposerFixture, BecomesLeaderAfterMajorityPromises) {
  start();
  EXPECT_TRUE(pump_until([&] { return proposer->is_leader(); }));
}

TEST_F(ProposerFixture, ProposesClientValueAndDecidesOnMajority) {
  start();
  ASSERT_TRUE(pump_until([&] { return proposer->is_leader(); }));
  net.send(1, 100, Message{ClientRequest{
                       7, std::make_shared<const std::vector<std::uint8_t>>(
                              std::vector<std::uint8_t>{0x42})}});
  ASSERT_TRUE(pump_until([&] { return proposer->decided_count() >= 1; }));
  // The learner received the decision for instance 1, request id 7.
  auto env = learner->recv_for(2000ms);
  ASSERT_TRUE(env.has_value());
  const auto* decide = std::get_if<Decide>(&env->msg);
  ASSERT_NE(decide, nullptr);
  EXPECT_EQ(decide->instance, 1u);
  EXPECT_EQ(decide->request_id, 7u);
}

TEST_F(ProposerFixture, RetransmitsAcceptUntilQuorum) {
  start();
  ASSERT_TRUE(pump_until([&] { return proposer->is_leader(); }));
  reply_accepts = false;  // swallow votes: the accept must be re-sent
  net.send(1, 100, Message{ClientRequest{9, nullptr}});
  ASSERT_TRUE(pump_until([&] {
    int copies = 0;
    for (const Accept& a : accepts_seen) copies += a.instance == 1 ? 1 : 0;
    return copies >= 4;  // >= 2 rounds across 2 acceptors
  }));
  EXPECT_EQ(proposer->decided_count(), 0u);
  reply_accepts = true;  // now let it through
  ASSERT_TRUE(pump_until([&] { return proposer->decided_count() >= 1; }));
}

TEST_F(ProposerFixture, QuorumCountsDistinctAcceptorsNotAcceptedMessages) {
  // A vote is defined by who sent it: one acceptor's Accepted, however often
  // it arrives, is one of the two votes a majority of three needs.
  start();
  ASSERT_TRUE(pump_until([&] { return proposer->is_leader(); }));
  net.send(1, 100, Message{ClientRequest{5, bytes_value(0x5)}});
  const auto next_accept = [&](PaxosEndpoint* ep) -> std::optional<Accept> {
    while (auto env = ep->recv_for(2000ms)) {
      if (const auto* a = std::get_if<Accept>(&env->msg)) return *a;
    }
    return std::nullopt;
  };
  const auto accept = next_accept(acceptor0);
  ASSERT_TRUE(accept.has_value());
  for (int i = 0; i < 5; ++i) {
    net.send(200, 100, Message{Accepted{accept->ballot, accept->instance}});
  }
  std::this_thread::sleep_for(200ms);  // the duplicates reach the proposer
  EXPECT_EQ(proposer->decided_count(), 0u);

  net.send(201, 100, Message{Accepted{accept->ballot, accept->instance}});
  const auto deadline = std::chrono::steady_clock::now() + 2000ms;
  while (proposer->decided_count() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(proposer->decided_count(), 1u);
}

TEST_F(ProposerFixture, RecoversAcceptedValuesDuringPhase1) {
  recovered[200] = {PromiseEntry{1, Ballot{1, 99}, 55, bytes_value(0xAA)}};
  start();
  reply_accepts = false;
  ASSERT_TRUE(pump_until([&] { return saw_accept(1, 55); }));
  // Re-proposed under the NEW leader's ballot.
  for (const Accept& a : accepts_seen) {
    if (a.instance == 1) {
      EXPECT_EQ(a.ballot.node, 100u);
    }
  }
}

TEST_F(ProposerFixture, FillsHolesWithNoops) {
  recovered[200] = {PromiseEntry{3, Ballot{1, 99}, 66, bytes_value(0xBB)}};
  start();
  reply_accepts = false;
  ASSERT_TRUE(pump_until([&] {
    return saw_accept(1, 0) && saw_accept(2, 0) && saw_accept(3, 66);
  })) << "expected no-ops at the holes (1, 2) and the recovered value at 3";
}

TEST_F(ProposerFixture, DecidesHoleNoopsWithRequestIdZero) {
  // The no-ops a new leader writes into log holes reach the learners as
  // request id 0 with a null value — the mark they skip.
  recovered[200] = {PromiseEntry{3, Ballot{1, 99}, 66, bytes_value(0xBB)}};
  start();
  ASSERT_TRUE(pump_until([&] { return proposer->decided_count() >= 3; }));
  std::map<InstanceId, Decide> decides;
  while (decides.size() < 3) {
    auto env = learner->recv_for(2000ms);
    ASSERT_TRUE(env.has_value());
    if (const auto* d = std::get_if<Decide>(&env->msg)) decides[d->instance] = *d;
  }
  EXPECT_EQ(decides[1].request_id, 0u);
  EXPECT_EQ(decides[1].value, nullptr);
  EXPECT_EQ(decides[2].request_id, 0u);
  EXPECT_EQ(decides[2].value, nullptr);
  EXPECT_EQ(decides[3].request_id, 66u);
  ASSERT_NE(decides[3].value, nullptr);
  EXPECT_EQ(decides[3].value->at(0), 0xBB);
}

TEST_F(ProposerFixture, DecidesTheClientBufferItself) {
  // The leader forwards the client's buffer through Phase 2 and the Decide
  // without copying it.
  start();
  ASSERT_TRUE(pump_until([&] { return proposer->is_leader(); }));
  const Value v = bytes_value(0x42);
  net.send(1, 100, Message{ClientRequest{7, v}});
  ASSERT_TRUE(pump_until([&] { return proposer->decided_count() >= 1; }));
  auto env = learner->recv_for(2000ms);
  ASSERT_TRUE(env.has_value());
  const auto* decide = std::get_if<Decide>(&env->msg);
  ASSERT_NE(decide, nullptr);
  EXPECT_EQ(decide->value.get(), v.get());
  for (const Accept& a : accepts_seen) EXPECT_EQ(a.value.get(), v.get());
}

TEST_F(ProposerFixture, StepsDownOnHigherBallotNack) {
  start();
  ASSERT_TRUE(pump_until([&] { return proposer->is_leader(); }));
  net.send(200, 100, Message{Nack{Ballot{100, 101}, 0}});
  const auto deadline = std::chrono::steady_clock::now() + 2000ms;
  while (proposer->is_leader() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(2ms);
  }
  EXPECT_FALSE(proposer->is_leader());
}

TEST_F(ProposerFixture, AnswersLearnRequestsFromDecidedLog) {
  start();
  ASSERT_TRUE(pump_until([&] { return proposer->is_leader(); }));
  net.send(1, 100, Message{ClientRequest{3, nullptr}});
  ASSERT_TRUE(pump_until([&] { return proposer->decided_count() >= 1; }));
  ASSERT_TRUE(learner->recv_for(2000ms).has_value());  // original decide
  net.send(300, 100, Message{LearnRequest{1}});
  auto env = learner->recv_for(2000ms);
  ASSERT_TRUE(env.has_value());
  const auto* decide = std::get_if<Decide>(&env->msg);
  ASSERT_NE(decide, nullptr);
  EXPECT_EQ(decide->instance, 1u);
}

TEST_F(ProposerFixture, ResendsTheDecideWhenTheClientRetransmitsADecidedRequest) {
  // The client lost the Decide for request 7 and sends the request again:
  // the leader answers with the decision instead of proposing it twice.
  start();
  ASSERT_TRUE(pump_until([&] { return proposer->is_leader(); }));
  net.send(1, 100, Message{ClientRequest{7, bytes_value(0x7)}});
  ASSERT_TRUE(pump_until([&] { return proposer->decided_count() >= 1; }));
  const auto next_decide = [&]() -> std::optional<Decide> {
    while (auto env = client->recv_for(2000ms)) {
      if (const auto* d = std::get_if<Decide>(&env->msg)) return *d;
    }
    return std::nullopt;
  };
  ASSERT_TRUE(next_decide().has_value());  // the original, "lost"
  net.send(1, 100, Message{ClientRequest{7, bytes_value(0x7)}});
  const auto again = next_decide();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->instance, 1u);
  EXPECT_EQ(again->request_id, 7u);
  EXPECT_EQ(proposer->decided_count(), 1u);
}

TEST_F(ProposerFixture, DeduplicatesClientRequests) {
  start();
  ASSERT_TRUE(pump_until([&] { return proposer->is_leader(); }));
  for (int i = 0; i < 5; ++i) {
    net.send(1, 100, Message{ClientRequest{42, nullptr}});  // same request id
  }
  ASSERT_TRUE(pump_until([&] { return proposer->decided_count() >= 1; }));
  pump_until([&] { return false; }, 200ms);  // let any duplicates surface
  EXPECT_EQ(proposer->decided_count(), 1u);
  // No second instance was ever proposed for the duplicate ids.
  for (const Accept& a : accepts_seen) EXPECT_LE(a.instance, 1u);
}

}  // namespace
}  // namespace psmr::consensus
