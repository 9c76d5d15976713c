#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "util/blocking_queue.hpp"

namespace psmr::util {
namespace {

// ------------------------------------------------------------ Blocking --

TEST(BlockingQueue, PushPopBasics) {
  BlockingQueue<int> q;
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(*q.pop(), 1);
  EXPECT_EQ(*q.pop(), 2);
}

TEST(BlockingQueue, PopBlocksUntilPush) {
  BlockingQueue<int> q;
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(q.push(42));
  });
  EXPECT_EQ(*q.pop(), 42);
  t.join();
}

TEST(BlockingQueue, CloseWakesBlockedPop) {
  BlockingQueue<int> q;
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
  });
  EXPECT_FALSE(q.pop().has_value());
  t.join();
}

TEST(BlockingQueue, CloseDrainsRemainingItems) {
  BlockingQueue<int> q;
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(*q.pop(), 1);
  EXPECT_EQ(*q.pop(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BlockingQueue, BoundedBlocksProducer) {
  BlockingQueue<int> q(2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  std::atomic<bool> third_pushed{false};
  std::thread t([&] {
    EXPECT_TRUE(q.push(3));
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(*q.pop(), 1);
  t.join();
  EXPECT_TRUE(third_pushed.load());
}

TEST(BlockingQueue, CloseWhileFullNeverLosesOrInventsElements) {
  // The closed-queue contract under its nastiest race: producers blocked on
  // a FULL queue while close() slams the door. Every push that returned
  // true must be popped exactly once; every push that returned false must
  // never appear. Run many rounds with close() at varying offsets so both
  // orders of the close-vs-blocked-push race are exercised.
  constexpr int kRounds = 40;
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 16;
  for (int round = 0; round < kRounds; ++round) {
    BlockingQueue<int> q(2);
    std::atomic<std::uint64_t> accepted_sum{0};
    std::atomic<int> accepted{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          const int v = p * 1000 + i;
          if (q.push(v)) {
            accepted_sum.fetch_add(static_cast<std::uint64_t>(v));
            accepted.fetch_add(1);
          }
        }
      });
    }
    // Let producers pile up against the tiny capacity, then close. Varying
    // the delay moves the close point around the blocked-push window.
    std::this_thread::sleep_for(std::chrono::microseconds(50 * (round % 5)));
    q.close();
    // closed_ is set under the queue mutex, so every true-returning push
    // happened-before close() returned: draining now sees all of them.
    std::uint64_t popped_sum = 0;
    int popped = 0;
    while (auto v = q.pop()) {
      popped_sum += static_cast<std::uint64_t>(*v);
      ++popped;
    }
    for (auto& t : producers) t.join();
    EXPECT_EQ(popped, accepted.load()) << "round " << round;
    EXPECT_EQ(popped_sum, accepted_sum.load()) << "round " << round;
  }
}

TEST(BlockingQueue, PopForTimesOut) {
  BlockingQueue<int> q;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop_for(std::chrono::milliseconds(30)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(25));
}

TEST(BlockingQueue, TryPushRespectsCapacity) {
  BlockingQueue<int> q(1);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_FALSE(q.try_push(2));
}

TEST(BlockingQueue, PopUntilPastDeadlineReturnsImmediately) {
  BlockingQueue<int> q;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop_until(t0 - std::chrono::seconds(1)).has_value());
  // Must not have waited the "negative" duration out as an unsigned value.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::milliseconds(100));
}

TEST(BlockingQueue, PopUntilDrainsAvailableItemEvenPastDeadline) {
  // The deadline gates WAITING, not draining: an item already queued is
  // returned even when the deadline has long passed.
  BlockingQueue<int> q;
  EXPECT_TRUE(q.push(7));
  const auto past = std::chrono::steady_clock::now() - std::chrono::seconds(1);
  EXPECT_EQ(*q.pop_until(past), 7);
}

TEST(BlockingQueue, PopUntilReturnsItemPushedBeforeDeadline) {
  BlockingQueue<int> q;
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_TRUE(q.push(42));
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  EXPECT_EQ(*q.pop_until(deadline), 42);
  t.join();
}

TEST(BlockingQueue, PopUntilDeadlineIsAnchoredNotRestarted) {
  // A stream of wakeups that never leaves an item for us (a racing consumer
  // steals each one) must NOT push the deadline out: pop_until re-waits on
  // the ORIGINAL deadline after every wakeup, so it returns on time.
  BlockingQueue<int> q;
  std::atomic<bool> stop{false};
  std::thread noise([&] {
    while (!stop.load()) {
      (void)q.push(1);
      // Steal it back so the victim's predicate flickers true->false.
      q.try_pop();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  // The victim may win a race and grab an item — either outcome is fine;
  // what matters is that it is back by (deadline + small slack).
  (void)q.pop_until(t0 + std::chrono::milliseconds(60));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::milliseconds(2000));
  stop.store(true);
  noise.join();
}

TEST(BlockingQueue, CloseWakesPopUntil) {
  BlockingQueue<int> q;
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop_until(deadline).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  t.join();
}

}  // namespace
}  // namespace psmr::util
