#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <unistd.h>

#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace psmr::workload {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // pid + test name: unique across the parallel processes of one ctest
    // run and across the tests of one binary (an address is neither).
    path_ = ::testing::TempDir() + "trace_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

smr::Batch make_batch(std::uint64_t seq, std::size_t n, bool bitmap,
                      const smr::BitmapConfig& cfg) {
  util::Xoshiro256 rng(seq);
  std::vector<smr::Command> cmds;
  for (std::size_t i = 0; i < n; ++i) {
    smr::Command c;
    c.type = static_cast<smr::OpType>(rng.next_below(4));
    c.key = rng();
    c.value = rng();
    c.client_id = rng.next_below(100);
    c.sequence = i;
    cmds.push_back(c);
  }
  smr::Batch b(std::move(cmds));
  b.set_sequence(seq);
  b.set_proxy_id(seq % 3);
  if (bitmap) b.build_bitmap(cfg);
  return b;
}

TEST_F(TraceTest, RoundTripPreservesBatches) {
  smr::BitmapConfig cfg;
  cfg.bits = 102400;
  {
    TraceWriter writer(path_);
    for (std::uint64_t s = 1; s <= 20; ++s) {
      writer.append(make_batch(s, 1 + s % 7, /*bitmap=*/true, cfg));
    }
    EXPECT_EQ(writer.batches_written(), 20u);
  }
  TraceReader reader(path_, cfg);
  for (std::uint64_t s = 1; s <= 20; ++s) {
    auto batch = reader.next();
    ASSERT_TRUE(batch.has_value()) << s;
    const smr::Batch expected = make_batch(s, 1 + s % 7, true, cfg);
    EXPECT_EQ(batch->sequence(), expected.sequence());
    EXPECT_EQ(batch->proxy_id(), expected.proxy_id());
    ASSERT_EQ(batch->size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(batch->commands()[i], expected.commands()[i]);
    }
    EXPECT_EQ(batch->bloom().bitmap(), expected.bloom().bitmap());
  }
  EXPECT_FALSE(reader.next().has_value());  // clean EOF
}

TEST_F(TraceTest, EmptyTraceYieldsNothing) {
  { TraceWriter writer(path_); }
  smr::BitmapConfig cfg;
  TraceReader reader(path_, cfg);
  EXPECT_FALSE(reader.next().has_value());
}

TEST_F(TraceTest, ReplayIsDeterministic) {
  // A generator-produced workload captured once replays bit-identically —
  // the facility the benches use for regression comparisons.
  smr::BitmapConfig cfg;
  cfg.bits = 1024;
  GeneratorConfig gcfg;
  gcfg.disjoint_keys = true;
  gcfg.batch_size = 5;
  Generator gen(gcfg, 0, nullptr);
  {
    TraceWriter writer(path_);
    for (std::uint64_t s = 1; s <= 10; ++s) {
      std::vector<smr::Command> cmds;
      for (int i = 0; i < 5; ++i) cmds.push_back(gen.next(0, s * 5 + i));
      smr::Batch b(std::move(cmds));
      b.set_sequence(s);
      writer.append(b);
    }
  }
  auto read_all = [&] {
    TraceReader reader(path_, cfg);
    std::vector<smr::Key> keys;
    while (auto b = reader.next()) {
      for (const auto& c : b->commands()) keys.push_back(c.key);
    }
    return keys;
  };
  const auto first = read_all();
  const auto second = read_all();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 50u);
}

}  // namespace
}  // namespace psmr::workload
