// The cross-participant rendezvous of the EarlyScheduler (class workers +
// fallback engine), tested directly:
// the leader runs once and only after every participant arrived, followers
// leave only after it finished, a throwing action surfaces in the leader
// alone, exactly one participant retires the gate, and a gate shrunk after
// registration (partial acceptance during shutdown) still resolves. Every
// wait below is on logical progress (arrival counts, flags), never on time.
#include "core/engine_parts.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace psmr::core {
namespace {

/// Spins (yielding) until `gate` has seen `n` arrivals.
void await_arrivals(RendezvousGate& gate, unsigned n) {
  for (;;) {
    {
      std::lock_guard lk(gate.mu);
      if (gate.arrived >= n) return;
    }
    std::this_thread::yield();
  }
}

TEST(RendezvousGate, LeaderRunsOnceAfterEveryArrivalAndFollowersWaitForIt) {
  constexpr unsigned kParticipants = 3;
  RendezvousGate gate(kParticipants, /*leader_id=*/0);
  std::atomic<int> lead_runs{0};
  std::atomic<unsigned> arrived_at_lead{0};
  std::atomic<bool> lead_started{false};
  std::atomic<bool> release_lead{false};
  std::atomic<bool> lead_finished{false};
  std::atomic<int> followers_returned{0};
  std::atomic<int> followers_saw_unfinished_lead{0};
  std::atomic<int> retired{0};
  std::atomic<int> retired_by{-1};

  auto participant = [&](std::size_t id) {
    rendezvous(
        gate, id,
        [&] {
          lead_runs.fetch_add(1);
          {
            std::lock_guard lk(gate.mu);
            arrived_at_lead.store(gate.arrived);
          }
          lead_started.store(true);
          while (!release_lead.load()) std::this_thread::yield();
          lead_finished.store(true);
        },
        [&] {
          retired.fetch_add(1);
          retired_by.store(static_cast<int>(id));
        });
    if (id != 0) {
      if (!lead_finished.load()) followers_saw_unfinished_lead.fetch_add(1);
      followers_returned.fetch_add(1);
    }
  };

  // The leader arrives first and must not run while anyone is missing.
  std::vector<std::thread> threads;
  threads.emplace_back(participant, 0);
  await_arrivals(gate, 1);
  threads.emplace_back(participant, 1);
  await_arrivals(gate, 2);
  EXPECT_EQ(lead_runs.load(), 0) << "leader ran before every participant arrived";
  threads.emplace_back(participant, 2);

  while (!lead_started.load()) std::this_thread::yield();
  EXPECT_EQ(arrived_at_lead.load(), kParticipants);
  EXPECT_EQ(followers_returned.load(), 0) << "a follower left while the leader ran";
  release_lead.store(true);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(lead_runs.load(), 1);
  EXPECT_EQ(followers_returned.load(), 2);
  EXPECT_EQ(followers_saw_unfinished_lead.load(), 0);
  EXPECT_EQ(retired.load(), 1);
  EXPECT_GE(retired_by.load(), 0);
  EXPECT_EQ(gate.departed, kParticipants);
}

TEST(RendezvousGate, ThrowingLeadIsRethrownByTheLeaderAlone) {
  constexpr unsigned kParticipants = 4;
  RendezvousGate gate(kParticipants, /*leader_id=*/1);
  std::atomic<int> lead_runs{0};
  std::atomic<int> retired{0};
  std::vector<std::string> caught(kParticipants);
  std::vector<std::thread> threads;
  for (std::size_t id = 0; id < kParticipants; ++id) {
    threads.emplace_back([&, id] {
      try {
        rendezvous(
            gate, id,
            [&] {
              lead_runs.fetch_add(1);
              throw std::runtime_error("lead failed");
            },
            [&] { retired.fetch_add(1); });
      } catch (const std::runtime_error& e) {
        caught[id] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(lead_runs.load(), 1);
  EXPECT_EQ(retired.load(), 1);
  for (std::size_t id = 0; id < kParticipants; ++id) {
    EXPECT_EQ(caught[id], id == 1 ? "lead failed" : "") << "participant " << id;
  }
}

TEST(RendezvousGate, GateShrunkAfterRegistrationStillResolves) {
  // Registered for participants {0, 1, 2} with 0 leading; participant 0
  // then refuses the batch (stop() raced the delivery), so the gate shrinks
  // to the two participants that hold it and the lowest of them, 1, leads.
  RendezvousGate gate(3, /*leader_id=*/0);
  std::atomic<int> lead_runs{0};
  std::atomic<int> led_by{-1};
  std::atomic<int> retired{0};
  std::vector<std::thread> threads;
  for (std::size_t id : {std::size_t{1}, std::size_t{2}}) {
    threads.emplace_back([&, id] {
      rendezvous(
          gate, id,
          [&] {
            lead_runs.fetch_add(1);
            led_by.store(static_cast<int>(id));
          },
          [&] { retired.fetch_add(1); });
    });
  }
  await_arrivals(gate, 2);
  EXPECT_EQ(lead_runs.load(), 0);
  gate.shrink(2, /*leader_id=*/1);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(lead_runs.load(), 1);
  EXPECT_EQ(led_by.load(), 1);
  EXPECT_EQ(retired.load(), 1);
}

TEST(RendezvousGate, TableRetiresTheGateWithTheLastParticipant) {
  GateTable table;
  const std::shared_ptr<RendezvousGate> gate = table.open(42, 2, /*leader=*/0);
  EXPECT_EQ(table.find(42), gate);
  EXPECT_EQ(table.find(43), nullptr);
  std::atomic<int> lead_runs{0};
  std::vector<std::thread> threads;
  for (std::size_t id : {std::size_t{0}, std::size_t{1}}) {
    threads.emplace_back([&, id] {
      table.rendezvous(*gate, 42, id, [&] { lead_runs.fetch_add(1); });
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(lead_runs.load(), 1);
  EXPECT_EQ(table.find(42), nullptr);
}

}  // namespace
}  // namespace psmr::core
