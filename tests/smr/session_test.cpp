// SessionTable: the exactly-once execution filter. Covers the begin/finish
// claim protocol, out-of-order completion windows, duplicate caching,
// serialization round-trips, and the cross-replica digest.
#include "smr/session.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace psmr::smr {
namespace {

Response make_response(std::uint64_t client, std::uint64_t seq, std::uint64_t value,
                       Status status = Status::kOk) {
  Response r;
  r.status = status;
  r.value = value;
  r.client_id = client;
  r.sequence = seq;
  return r;
}

TEST(SessionTable, FirstExecutionThenDuplicate) {
  SessionTable t;
  Response cached;
  ASSERT_EQ(t.begin(1, 1, &cached), SessionTable::Gate::kExecute);
  t.finish(make_response(1, 1, 42));
  EXPECT_EQ(t.begin(1, 1, &cached), SessionTable::Gate::kDuplicate);
  EXPECT_EQ(cached.value, 42u);
  EXPECT_EQ(cached.sequence, 1u);
  EXPECT_EQ(t.duplicates_filtered(), 1u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(SessionTable, InFlightTwinIsSuppressed) {
  SessionTable t;
  ASSERT_EQ(t.begin(3, 5, nullptr), SessionTable::Gate::kExecute);
  // The duplicate racing its executing twin gets kInFlight, not a second
  // kExecute — the state effect is applied exactly once.
  EXPECT_EQ(t.begin(3, 5, nullptr), SessionTable::Gate::kInFlight);
  t.finish(make_response(3, 5, 7));
  Response cached;
  EXPECT_EQ(t.begin(3, 5, &cached), SessionTable::Gate::kDuplicate);
  EXPECT_EQ(cached.value, 7u);
}

TEST(SessionTable, OutOfOrderFirstDeliveriesAllExecute) {
  // Parallel workers can finish one client's independent commands in any
  // order; every FIRST delivery must still execute (windowed executed-set,
  // not a high-water mark).
  SessionTable t;
  const std::vector<std::uint64_t> order = {4, 1, 3, 7, 2, 6, 5};
  for (std::uint64_t seq : order) {
    ASSERT_EQ(t.begin(9, seq, nullptr), SessionTable::Gate::kExecute) << "seq " << seq;
    t.finish(make_response(9, seq, seq * 10));
  }
  // Everything executed exactly once; retransmits of the LATEST sequence
  // replay the cached response, older ones are recognized but dropped.
  Response cached;
  EXPECT_EQ(t.begin(9, 7, &cached), SessionTable::Gate::kDuplicate);
  EXPECT_EQ(cached.value, 70u);
  for (std::uint64_t seq = 1; seq <= 6; ++seq) {
    EXPECT_EQ(t.begin(9, seq, nullptr), SessionTable::Gate::kStale) << "seq " << seq;
  }
  // The window compacted: a fresh sequence still executes.
  EXPECT_EQ(t.begin(9, 8, nullptr), SessionTable::Gate::kExecute);
}

TEST(SessionTable, PeekNeverClaims) {
  SessionTable t;
  EXPECT_EQ(t.peek(2, 1, nullptr), SessionTable::Gate::kExecute);
  // peek didn't mark in-flight: begin still claims.
  EXPECT_EQ(t.begin(2, 1, nullptr), SessionTable::Gate::kExecute);
  t.finish(make_response(2, 1, 5));
  Response cached;
  EXPECT_EQ(t.peek(2, 1, &cached), SessionTable::Gate::kDuplicate);
  EXPECT_EQ(cached.value, 5u);
  // peek does not count duplicates (it is the delivery fast path's probe).
  EXPECT_EQ(t.duplicates_filtered(), 0u);
}

TEST(SessionTable, FailedResponsesAreCachedToo) {
  // A failed execution is still an execution: the retransmit must replay the
  // error, not run the command a second time.
  SessionTable t;
  ASSERT_EQ(t.begin(4, 1, nullptr), SessionTable::Gate::kExecute);
  t.finish(make_response(4, 1, 0, Status::kFailed));
  Response cached;
  EXPECT_EQ(t.begin(4, 1, &cached), SessionTable::Gate::kDuplicate);
  EXPECT_EQ(cached.status, Status::kFailed);
}

TEST(SessionTable, SerializeRoundTripPreservesDigestAndGates) {
  SessionTable t;
  for (std::uint64_t client = 1; client <= 20; ++client) {
    for (std::uint64_t seq = 1; seq <= client % 5 + 1; ++seq) {
      EXPECT_EQ(t.begin(client, seq, nullptr), SessionTable::Gate::kExecute);
      t.finish(make_response(client, seq, client * 100 + seq));
    }
  }
  // One client with an open (uncompacted) window: seq 2 finished, 1 not.
  ASSERT_EQ(t.begin(99, 2, nullptr), SessionTable::Gate::kExecute);
  t.finish(make_response(99, 2, 992));

  const auto bytes = t.serialize();
  SessionTable restored;
  ASSERT_TRUE(restored.deserialize(bytes));
  EXPECT_EQ(restored.digest(), t.digest());
  EXPECT_EQ(restored.size(), t.size());
  // Gates survive: the recovered replica must NOT re-execute 99/2 but must
  // still accept the never-executed 99/1.
  Response cached;
  EXPECT_EQ(restored.begin(99, 2, &cached), SessionTable::Gate::kDuplicate);
  EXPECT_EQ(cached.value, 992u);
  EXPECT_EQ(restored.begin(99, 1, nullptr), SessionTable::Gate::kExecute);
  // Serialization is canonical (sorted): same state, same bytes.
  EXPECT_EQ(restored.serialize(), bytes);
}

TEST(SessionTable, SerializeBytesMatchRecordedFrame) {
  // The frame below was recorded from the field-by-field encoder that
  // predates the pointer-sorting one; checkpoints and state transfer need
  // the bytes unchanged. The table mixes in-order, out-of-order, failed and
  // claimed-but-unfinished clients (the last is not serialized).
  SessionTable t;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_EQ(t.begin(7, seq, nullptr), SessionTable::Gate::kExecute);
    t.finish(make_response(7, seq, 70 + seq));
  }
  for (const std::uint64_t seq : {1u, 4u, 6u}) {  // floor 1, above {4, 6}
    ASSERT_EQ(t.begin(2, seq, nullptr), SessionTable::Gate::kExecute);
    t.finish(make_response(2, seq, 20 + seq));
  }
  const std::uint64_t big = (std::uint64_t{1} << 40) | 5;
  ASSERT_EQ(t.begin(big, 1, nullptr), SessionTable::Gate::kExecute);
  t.finish(make_response(big, 1, 0, Status::kFailed));
  ASSERT_EQ(t.begin(11, 3, nullptr), SessionTable::Gate::kExecute);
  t.finish(make_response(11, 3, 0, Status::kNotFound));
  ASSERT_EQ(t.begin(9, 1, nullptr), SessionTable::Gate::kExecute);

  const char* const recorded =
      "534d535004000000000000000200000000000000010000000000000006000000"
      "00000000001a0000000000000002000000040000000000000006000000000000"
      "0007000000000000000300000000000000030000000000000000490000000000"
      "0000000000000b00000000000000000000000000000003000000000000000100"
      "0000000000000001000000030000000000000005000000000100000100000000"
      "000000010000000000000003000000000000000000000000";
  std::vector<std::uint8_t> expected;
  for (const char* p = recorded; *p != '\0'; p += 2) {
    expected.push_back(static_cast<std::uint8_t>(std::stoul(std::string(p, 2), nullptr, 16)));
  }
  EXPECT_EQ(t.serialize(), expected);
}

TEST(SessionTable, DeserializeRejectsGarbage) {
  SessionTable t;
  EXPECT_FALSE(t.deserialize({1, 2, 3}));
  auto bytes = t.serialize();  // valid empty table
  EXPECT_TRUE(t.deserialize(bytes));
  bytes.push_back(0);  // trailing junk
  EXPECT_FALSE(t.deserialize(bytes));
  EXPECT_EQ(t.size(), 0u);
}

TEST(SessionTable, ConcurrentClientsAreIndependent) {
  SessionTable t(8);
  std::vector<std::thread> threads;
  std::atomic<int> executed{0};
  for (int c = 1; c <= 8; ++c) {
    threads.emplace_back([&t, &executed, c] {
      for (std::uint64_t seq = 1; seq <= 200; ++seq) {
        if (t.begin(static_cast<std::uint64_t>(c), seq, nullptr) ==
            SessionTable::Gate::kExecute) {
          t.finish(make_response(static_cast<std::uint64_t>(c), seq, seq));
          executed.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(executed.load(), 8 * 200);
  EXPECT_EQ(t.size(), 8u);
}

}  // namespace
}  // namespace psmr::smr
