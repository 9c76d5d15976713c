// Mechanical check of the paper's Proposition 6: executions produced by the
// parallel scheduler are linearizable.
//
// A HistoryRecorder is wired around the pipeline with EXACT operation
// intervals: begin() fires in the proxy's command source (invocation),
// complete() fires in the replica response sink on the FIRST response per
// operation (what the client observes). The Wing-Gong checker then searches
// for a legal linearization of each per-key sub-history.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "consensus/group.hpp"
#include "kvstore/kvstore.hpp"
#include "smr/consensus_adapter.hpp"
#include "smr/history.hpp"
#include "smr/proxy.hpp"
#include "smr/replica.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace psmr {
namespace {

using namespace std::chrono_literals;

struct LinParam {
  core::ConflictMode mode;
  unsigned workers;
  std::size_t batch_size;
  unsigned proxies;
  std::uint64_t key_space;
  std::uint64_t seed;
};

class LinearizabilityTest : public ::testing::TestWithParam<LinParam> {};

TEST_P(LinearizabilityTest, PipelineProducesLinearizableHistories) {
  const LinParam p = GetParam();

  smr::BitmapConfig bitmap;
  bitmap.bits = 102400;
  consensus::LocalBroadcast broadcast;
  smr::ConsensusAdapter order(broadcast, bitmap);
  kv::KvStore store;
  kv::KvService service(store);
  smr::HistoryRecorder recorder;

  std::mutex ticket_mu;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> open_tickets;

  std::vector<std::unique_ptr<smr::Proxy>> proxies;
  auto sink = [&](const smr::Response& r) {
    {
      std::lock_guard lk(ticket_mu);
      auto it = open_tickets.find({r.client_id, r.sequence});
      if (it != open_tickets.end()) {
        recorder.complete(it->second, r, util::now_ns());
        open_tickets.erase(it);  // first response wins; duplicates ignored
      }
    }
    const std::size_t idx = static_cast<std::size_t>(r.client_id) / 1024;
    if (idx < proxies.size()) proxies[idx]->on_response(r);
  };

  smr::Replica::Config rcfg;
  rcfg.scheduler.workers = p.workers;
  rcfg.scheduler.mode = p.mode;
  smr::Replica replica(rcfg, service, sink);
  order.subscribe_replica([&](smr::BatchPtr b) { replica.deliver(b); });
  replica.start();

  std::vector<std::unique_ptr<util::Xoshiro256>> rngs;
  for (unsigned i = 0; i < p.proxies; ++i) {
    rngs.push_back(std::make_unique<util::Xoshiro256>(p.seed + i));
  }

  // Proxies keep running while the main thread polls the slowest one, so
  // cap the hot-key phase globally: past the quota, commands draw unique
  // cold keys whose singleton sub-histories cannot overflow the checker.
  std::atomic<std::uint64_t> ops_issued{0};
  const std::uint64_t hot_quota = 300;

  for (unsigned i = 0; i < p.proxies; ++i) {
    smr::Proxy::Config pcfg;
    pcfg.proxy_id = i;
    pcfg.formation.batch_size = p.batch_size;
    pcfg.num_clients = 1024;
    pcfg.formation.use_bitmap = p.mode == core::ConflictMode::kBitmap;
    pcfg.formation.bitmap = bitmap;
    util::Xoshiro256* rng = rngs[i].get();
    proxies.push_back(std::make_unique<smr::Proxy>(
        pcfg,
        [&, rng](std::uint64_t client, std::uint64_t seq) {
          smr::Command c;
          const double dice = rng->next_double();
          c.type = dice < 0.45  ? smr::OpType::kUpdate
                   : dice < 0.8 ? smr::OpType::kRead
                   : dice < 0.9 ? smr::OpType::kCreate
                                : smr::OpType::kRemove;
          const std::uint64_t issued = ops_issued.fetch_add(1, std::memory_order_relaxed);
          c.key = issued < hot_quota ? rng->next_below(p.key_space)
                                     : (1ull << 40) + issued;
          c.value = rng->next_below(100000);
          c.client_id = client;
          c.sequence = seq;
          const std::size_t ticket = recorder.begin(c, util::now_ns());
          std::lock_guard lk(ticket_mu);
          open_tickets[{client, seq}] = ticket;
          return c;
        },
        [&](std::unique_ptr<smr::Batch> b) { order.broadcast(std::move(b)); }));
  }

  for (auto& proxy : proxies) proxy->start();
  // Cap each proxy's batches so per-key sub-histories stay checker-sized.
  const std::uint64_t batches_per_proxy = 12;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  for (auto& proxy : proxies) {
    while (proxy->batches_completed() < batches_per_proxy &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
  }
  for (auto& proxy : proxies) proxy->stop();
  replica.wait_idle();
  replica.stop();

  const auto history = recorder.snapshot();
  ASSERT_GT(history.size(), p.proxies * p.batch_size);  // made real progress
  const auto result = smr::check_linearizable(history, 64);
  EXPECT_TRUE(result.ok) << result.detail;
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndShapes, LinearizabilityTest,
    ::testing::Values(
        LinParam{core::ConflictMode::kKeysNested, 1, 4, 2, 16, 11},
        LinParam{core::ConflictMode::kKeysNested, 8, 4, 3, 16, 12},
        LinParam{core::ConflictMode::kKeysNested, 4, 8, 2, 24, 13},
        LinParam{core::ConflictMode::kBitmap, 4, 4, 3, 16, 14},
        LinParam{core::ConflictMode::kBitmap, 16, 8, 2, 24, 15},
        LinParam{core::ConflictMode::kBitmap, 8, 2, 4, 8, 16}),
    [](const ::testing::TestParamInfo<LinParam>& pinfo) {
      std::string name = core::to_string(pinfo.param.mode);
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name + "_w" + std::to_string(pinfo.param.workers) + "_b" +
             std::to_string(pinfo.param.batch_size) + "_p" +
             std::to_string(pinfo.param.proxies);
    });

}  // namespace
}  // namespace psmr
