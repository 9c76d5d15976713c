// Cross-variant lockstep property suite (graph_index_property_test
// pattern, widened to whole schedulers): for random command streams, the
// final KV state must be BIT-IDENTICAL across all four scheduler variants —
// Scheduler (scan and indexed), PipelinedScheduler, ShardedScheduler and
// EarlyScheduler — for every seed and worker count. This is the paper's
// replica-determinism requirement: the scheduling mechanism is an execution
// resource, never an ordering input.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/early_scheduler.hpp"
#include "core/pipelined_scheduler.hpp"
#include "core/scheduler.hpp"
#include "core/sharded_scheduler.hpp"
#include "kvstore/kvstore.hpp"
#include "smr/conflict_class.hpp"
#include "util/rng.hpp"

namespace psmr::core {
namespace {

/// Random batches: skewed key choice (hot set 0..31, fresh tail) plus a
/// random op mix, so both conflict-heavy and conflict-free schedules occur.
std::vector<smr::BatchPtr> random_stream(std::uint64_t seed,
                                         std::size_t n_batches) {
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
    out.push_back(std::move(b));
  }
  return out;
}

template <typename S>
std::vector<std::pair<smr::Key, smr::Value>> run_variant(
    SchedulerOptions cfg, const std::vector<smr::BatchPtr>& stream) {
  kv::KvStore store;
  S s(std::move(cfg), [&](const smr::Batch& b) {
    for (const smr::Command& c : b.commands()) {
      if (c.is_write()) store.update(c.key, c.value);
    }
  });
  s.start();
  for (const auto& b : stream) EXPECT_TRUE(s.deliver(b));
  s.wait_idle();
  s.stop();
  return store.snapshot();
}

TEST(SchedulerLockstepPropertyTest, AllVariantsBitIdenticalAcrossSeeds) {
  for (const std::uint64_t seed : {11ull, 77ull, 4096ull}) {
    const auto stream = random_stream(seed, 250);
    SchedulerOptions ref;
    ref.workers = 2;
    ref.index = IndexMode::kScan;
    const auto reference = run_variant<Scheduler>(ref, stream);
    for (const unsigned workers : {1u, 2u, 4u}) {
      SchedulerOptions cfg;
      cfg.workers = workers;

      cfg.index = IndexMode::kIndexed;
      EXPECT_EQ(run_variant<Scheduler>(cfg, stream), reference)
          << "indexed Scheduler, seed=" << seed << " workers=" << workers;

      // kAuto switches its index on and off with the graph's size.
      cfg.index = IndexMode::kAuto;
      EXPECT_EQ(run_variant<Scheduler>(cfg, stream), reference)
          << "auto-indexed Scheduler, seed=" << seed << " workers=" << workers;

      EXPECT_EQ(run_variant<PipelinedScheduler>(cfg, stream), reference)
          << "PipelinedScheduler, seed=" << seed << " workers=" << workers;

      SchedulerOptions sharded = cfg;
      sharded.shards = 4;
      EXPECT_EQ(run_variant<ShardedScheduler>(sharded, stream), reference)
          << "ShardedScheduler, seed=" << seed << " workers=" << workers;

      // Early scheduler under both map shapes: total (uniform) and partial
      // (hot ranges classified, fresh tail through the embedded graph).
      EXPECT_EQ(run_variant<EarlyScheduler>(cfg, stream), reference)
          << "EarlyScheduler uniform, seed=" << seed << " workers=" << workers;
      SchedulerOptions early = cfg;
      auto map = std::make_shared<smr::ConflictClassMap>();
      map->add_range(0, 15, 0);
      map->add_range(16, 31, 1);
      early.class_map = std::move(map);
      EXPECT_EQ(run_variant<EarlyScheduler>(early, stream), reference)
          << "EarlyScheduler ranges, seed=" << seed << " workers=" << workers;
    }
  }
}

template <typename S>
std::vector<std::pair<smr::Key, smr::Value>> run_variant_with_swap(
    SchedulerOptions cfg, const std::vector<smr::BatchPtr>& stream,
    std::uint64_t swap_seq,
    std::shared_ptr<const smr::ConflictClassMap> next) {
  kv::KvStore store;
  S s(std::move(cfg), [&](const smr::Batch& b) {
    for (const smr::Command& c : b.commands()) {
      if (c.is_write()) store.update(c.key, c.value);
    }
  });
  s.start();
  for (const auto& b : stream) {
    EXPECT_TRUE(s.deliver(b));
    // Mid-run repartition, exactly as Replica::deliver applies it: quiesce
    // the <= swap_seq prefix, swap, resume.
    if (b->sequence() == swap_seq) s.apply_class_map(next, swap_seq);
  }
  s.wait_idle();
  s.stop();
  EXPECT_EQ(s.class_map_fingerprint(), next->fingerprint());
  return store.snapshot();
}

TEST(SchedulerLockstepPropertyTest, MidRunRepartitionPreservesBitIdenticalState) {
  // The repartition contract (DESIGN.md §15): a class-map swap at a fixed
  // sequence is an execution-resource change, never an ordering input — so
  // every variant, swapped mid-run, must still match the no-swap reference
  // bit for bit. Batches after the swap carry stamps computed under the OLD
  // map (the stream was stamped once up front in real deployments too);
  // the early scheduler's fingerprint check recomputes them.
  auto initial = std::make_shared<smr::ConflictClassMap>();
  initial->add_range(0, 15, 0);
  initial->add_range(16, 31, 1);
  auto rebalanced = std::make_shared<smr::ConflictClassMap>();
  rebalanced->add_range(0, 7, 0);
  rebalanced->add_range(8, 23, 1);
  rebalanced->add_range(24, 31, 2);
  for (const std::uint64_t seed : {19ull, 555ull}) {
    const auto stream = random_stream(seed, 250);
    SchedulerOptions ref;
    ref.workers = 2;
    const auto reference = run_variant<Scheduler>(ref, stream);
    for (const std::uint64_t swap_seq : {1ull, 120ull, 250ull}) {
      for (const unsigned workers : {2u, 4u}) {
        SchedulerOptions cfg;
        cfg.workers = workers;
        cfg.class_map = initial;
        EXPECT_EQ(run_variant_with_swap<Scheduler>(cfg, stream, swap_seq,
                                                   rebalanced),
                  reference)
            << "Scheduler, seed=" << seed << " swap=" << swap_seq;
        EXPECT_EQ(run_variant_with_swap<PipelinedScheduler>(cfg, stream,
                                                            swap_seq, rebalanced),
                  reference)
            << "Pipelined, seed=" << seed << " swap=" << swap_seq;
        SchedulerOptions sharded = cfg;
        sharded.shards = 4;
        EXPECT_EQ(run_variant_with_swap<ShardedScheduler>(sharded, stream,
                                                          swap_seq, rebalanced),
                  reference)
            << "Sharded, seed=" << seed << " swap=" << swap_seq;
        EXPECT_EQ(run_variant_with_swap<EarlyScheduler>(cfg, stream, swap_seq,
                                                        rebalanced),
                  reference)
            << "Early, seed=" << seed << " swap=" << swap_seq
            << " workers=" << workers;
      }
    }
  }
}

TEST(SchedulerLockstepPropertyTest, ConflictModesAgreeOnEarlyFallback) {
  // The embedded graph engine inherits the conflict-mode knobs; bitmapless
  // key modes must agree with each other through the early fallback path.
  const auto stream = random_stream(31415, 200);
  SchedulerOptions ref;
  ref.workers = 2;
  ref.mode = ConflictMode::kKeysNested;
  const auto reference = run_variant<Scheduler>(ref, stream);
  for (const auto mode : {ConflictMode::kKeysNested, ConflictMode::kKeysHashed}) {
    SchedulerOptions cfg;
    cfg.workers = 2;
    cfg.mode = mode;
    cfg.class_map = std::make_shared<const smr::ConflictClassMap>();  // all fallback
    EXPECT_EQ(run_variant<EarlyScheduler>(cfg, stream), reference)
        << "mode=" << static_cast<int>(mode);
  }
}

}  // namespace
}  // namespace psmr::core
