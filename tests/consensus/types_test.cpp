#include "consensus/types.hpp"

#include <gtest/gtest.h>

namespace psmr::consensus {
namespace {

TEST(Ballot, TotalOrder) {
  EXPECT_LT((Ballot{1, 5}), (Ballot{2, 1}));   // counter dominates
  EXPECT_LT((Ballot{2, 1}), (Ballot{2, 5}));   // node breaks ties
  EXPECT_EQ((Ballot{3, 3}), (Ballot{3, 3}));
  EXPECT_TRUE((Ballot{}).is_zero());
  EXPECT_FALSE((Ballot{0, 1}).is_zero());
}

TEST(RequestDedup, InOrderIdsOnlyMoveTheFloor) {
  RequestDedup d;
  for (std::uint64_t id = 1; id <= 1000; ++id) EXPECT_TRUE(d.insert(id));
  EXPECT_EQ(d.floor(), 1000u);
  EXPECT_EQ(d.runs(), 0u);
  EXPECT_FALSE(d.insert(1));
  EXPECT_FALSE(d.insert(1000));
  EXPECT_TRUE(d.contains(500));
  EXPECT_FALSE(d.contains(1001));
}

TEST(RequestDedup, OutOfOrderIdsJoinRunsAndFillTheFloor) {
  RequestDedup d;
  EXPECT_TRUE(d.insert(3));
  EXPECT_TRUE(d.insert(5));
  EXPECT_EQ(d.floor(), 0u);
  EXPECT_EQ(d.runs(), 2u);
  EXPECT_TRUE(d.insert(4));  // joins 3 and 5 into one run
  EXPECT_EQ(d.runs(), 1u);
  EXPECT_FALSE(d.insert(4));
  EXPECT_FALSE(d.contains(2));
  EXPECT_TRUE(d.insert(2));
  EXPECT_EQ(d.runs(), 1u);
  EXPECT_TRUE(d.insert(1));  // the floor swallows the run
  EXPECT_EQ(d.floor(), 5u);
  EXPECT_EQ(d.runs(), 0u);
}

TEST(RequestDedup, MidRangeStreamCostsOneRun) {
  // A stream that starts far above 1 (a learner joining mid-log) is stored
  // as one run, not one entry per id.
  RequestDedup d;
  for (std::uint64_t id = 10'000; id < 20'000; ++id) EXPECT_TRUE(d.insert(id));
  EXPECT_EQ(d.floor(), 0u);
  EXPECT_EQ(d.runs(), 1u);
  EXPECT_TRUE(d.contains(15'000));
  EXPECT_FALSE(d.contains(9'999));
  EXPECT_FALSE(d.insert(19'999));
}

TEST(RequestDedup, IdZeroIsNeverStored) {
  // Request id 0 is the leader-change no-op: never a fresh request.
  RequestDedup d;
  EXPECT_FALSE(d.insert(0));
  EXPECT_TRUE(d.contains(0));
  EXPECT_EQ(d.floor(), 0u);
}

}  // namespace
}  // namespace psmr::consensus
