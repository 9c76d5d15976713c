// Lockstep property suite (graph_index_property_test pattern, widened to
// the whole threaded Scheduler): for random command streams, the final KV
// state must be BIT-IDENTICAL to a sequential replica that applies the
// batches one by one in delivery order, for every seed, worker count and
// conflict mode. This is the paper's
// replica-determinism requirement: the scheduling mechanism is an execution
// resource, never an ordering input.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/scheduler.hpp"
#include "kvstore/kvstore.hpp"
#include "util/rng.hpp"

namespace psmr::core {
namespace {

using State = std::vector<std::pair<smr::Key, smr::Value>>;

/// Random batches: skewed key choice (hot set 0..31, fresh tail) plus a
/// random op mix, so both conflict-heavy and conflict-free schedules occur.
/// `digest` != null builds each batch's bitmap, for kBitmap runs.
std::vector<smr::BatchPtr> random_stream(std::uint64_t seed, std::size_t n_batches,
                                         const smr::BitmapConfig* digest = nullptr) {
  util::Xoshiro256 rng(seed);
  std::vector<smr::BatchPtr> out;
  smr::Key fresh = 1u << 22;
  for (std::size_t i = 0; i < n_batches; ++i) {
    std::vector<smr::Command> cmds;
    const std::size_t n = 1 + rng.next_below(5);
    for (std::size_t k = 0; k < n; ++k) {
      smr::Command c;
      c.type = rng.next_bool(0.25) ? smr::OpType::kRead : smr::OpType::kUpdate;
      c.key = rng.next_bool(0.6) ? rng.next_below(32) : fresh++;
      c.value = (i + 1) * 100 + k;
      cmds.push_back(c);
    }
    auto b = std::make_shared<smr::Batch>(std::move(cmds));
    b->set_sequence(i + 1);
    if (digest != nullptr) b->build_bitmap(*digest);
    out.push_back(std::move(b));
  }
  return out;
}

/// The state a sequential replica reaches: every batch applied in delivery
/// order on one thread, into a std::map that shares no code with KvStore.
State sequential_state(const std::vector<smr::BatchPtr>& stream) {
  std::map<smr::Key, smr::Value> state;
  for (const auto& b : stream) {
    for (const smr::Command& c : b->commands()) {
      if (c.is_write()) state[c.key] = c.value;
    }
  }
  return {state.begin(), state.end()};
}

/// Deliveries made while the workers are held. Nothing leaves the graph
/// until the gate opens, so the graph grows past
/// DependencyGraph::kIndexActivateAbove and kAuto builds its index on every
/// run, whatever the thread timing.
constexpr std::size_t kGatedDeliveries = 16;

struct LockstepRun {
  State state;
  /// `graph.index.activations` of the scheduler's registry.
  std::uint64_t index_activations = 0;
};

LockstepRun run_scheduler(SchedulerOptions cfg, const std::vector<smr::BatchPtr>& stream) {
  kv::KvStore store;
  std::atomic<bool> open{false};
  Scheduler s(std::move(cfg), [&](const smr::Batch& b) {
    while (!open.load(std::memory_order_acquire)) std::this_thread::yield();
    for (const smr::Command& c : b.commands()) {
      if (c.is_write()) store.update(c.key, c.value);
    }
  });
  s.start();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (i == kGatedDeliveries) open.store(true, std::memory_order_release);
    EXPECT_TRUE(s.deliver(stream[i]));
  }
  open.store(true, std::memory_order_release);
  s.wait_idle();
  s.stop();
  return {store.snapshot(), s.stats().counter("graph.index.activations")};
}

TEST(SchedulerLockstepPropertyTest, AllVariantsBitIdenticalAcrossSeeds) {
  for (const std::uint64_t seed : {11ull, 77ull, 4096ull}) {
    const auto stream = random_stream(seed, 250);
    const State reference = sequential_state(stream);
    for (const unsigned workers : {1u, 2u, 4u}) {
      SchedulerOptions cfg;
      cfg.workers = workers;

      const LockstepRun run = run_scheduler(cfg, stream);
      EXPECT_EQ(run.state, reference) << "seed=" << seed << " workers=" << workers;
      // The run crossed from the scan to the indexed insert path.
      EXPECT_GT(run.index_activations, 0u) << "seed=" << seed << " workers=" << workers;
    }
  }
}

TEST(SchedulerLockstepPropertyTest, ConflictModesAgreeUnderSmallDigest) {
  // Both conflict modes must reach the sequential state; the small digest
  // makes kBitmap add false-positive edges the schedule must survive.
  smr::BitmapConfig digest;
  digest.bits = 4096;
  const auto stream = random_stream(31415, 200, &digest);
  const State reference = sequential_state(stream);
  for (const auto mode : {ConflictMode::kKeysNested, ConflictMode::kBitmap}) {
    SchedulerOptions cfg;
    cfg.workers = 2;
    cfg.mode = mode;
    EXPECT_EQ(run_scheduler(cfg, stream).state, reference) << "mode=" << to_string(mode);
  }
}

}  // namespace
}  // namespace psmr::core
