// Lockstep checkpoint property suite: a replica's threaded Scheduler
// running a delivery sequence must produce checkpoint frames BYTE-IDENTICAL
// to a sequential replica's, with the graph's insert path crossing from
// scan to index on every run. The
// executor is the real replicated-state pair (KvStore + SessionTable), so
// the property covers both record sections end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "core/scheduler.hpp"
#include "kvstore/kvstore.hpp"
#include "smr/checkpoint.hpp"
#include "smr/session.hpp"
#include "util/rng.hpp"

namespace psmr {
namespace {

constexpr std::uint64_t kBatches = 200;
constexpr std::uint64_t kInterval = 50;
/// Deliveries made while the workers are held. Nothing leaves the graph
/// until the gate opens, so it grows past
/// DependencyGraph::kIndexActivateAbove and kAuto builds its index on every
/// run, whatever the thread timing. The gate opens before the first
/// checkpoint barrier.
constexpr std::uint64_t kGatedDeliveries = 16;
static_assert(kGatedDeliveries < kInterval);

/// One deterministic command stream: tracked
/// commands (round-robin clients, per-client FIFO sequences) over a mix of
/// hot and fresh keys.
std::vector<std::vector<smr::Command>> command_stream(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::vector<smr::Command>> out;
  std::uint64_t client_seq[5] = {0, 0, 0, 0, 0};
  smr::Key fresh = 1u << 18;
  for (std::uint64_t seq = 1; seq <= kBatches; ++seq) {
    std::vector<smr::Command> cmds;
    const std::size_t n = 1 + rng.next_below(3);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t client = rng.next_below(5);
      smr::Command c;
      c.type = smr::OpType::kUpdate;
      c.key = rng.next_bool(0.4) ? rng.next_below(16) : fresh++;
      c.value = seq * 1000 + i;
      c.client_id = client + 1;
      c.sequence = ++client_seq[client];
      cmds.push_back(c);
    }
    out.push_back(std::move(cmds));
  }
  return out;
}

/// A stream whose key set changes only in alternate checkpoint intervals.
/// Intervals 1 and 3 create, remove and update keys. Some creates hit a
/// live key and some removes miss, and removed keys come back. Intervals 2
/// and 4 only update live keys. So the checkpoints alternate between
/// KvStore::serialize's sorting path (key set changed since the last
/// capture) and its rank path (unchanged).
std::vector<std::vector<smr::Command>> churn_stream(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<smr::Key> live;     // the key set after the stream so far
  std::vector<smr::Key> removed;  // keys that were live once
  auto pick = [&rng](const std::vector<smr::Key>& keys) {
    return keys[rng.next_below(keys.size())];
  };
  std::vector<std::vector<smr::Command>> out;
  std::uint64_t client_seq[5] = {0, 0, 0, 0, 0};
  smr::Key fresh = 1u << 18;
  for (std::uint64_t seq = 1; seq <= kBatches; ++seq) {
    const bool churn = (seq - 1) / kInterval % 2 == 0;
    std::vector<smr::Command> cmds;
    const std::size_t n = 1 + rng.next_below(3);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t client = rng.next_below(5);
      smr::Command c;
      c.value = seq * 1000 + i;
      c.client_id = client + 1;
      c.sequence = ++client_seq[client];
      const std::uint64_t roll = rng.next_below(100);
      if (!live.empty() && (!churn || roll < 40)) {
        // A hot head of the live set keeps real write-write dependencies.
        c.type = smr::OpType::kUpdate;
        c.key = rng.next_bool(0.4) ? live[rng.next_below(std::min<std::size_t>(live.size(), 8))]
                                   : pick(live);
      } else if (roll < 75) {
        c.type = smr::OpType::kCreate;
        const std::uint64_t source = rng.next_below(10);
        c.key = source < 2 && !live.empty()      ? pick(live)
                : source < 5 && !removed.empty() ? pick(removed)
                                                 : fresh++;
        if (std::find(live.begin(), live.end(), c.key) == live.end()) live.push_back(c.key);
      } else {
        c.type = smr::OpType::kRemove;
        if (live.size() > 8 && rng.next_bool(0.8)) {
          const std::size_t at = rng.next_below(live.size());
          c.key = live[at];
          live[at] = live.back();
          live.pop_back();
          removed.push_back(c.key);
        } else {
          c.key = (1u << 30) + rng.next_below(100);  // never created
        }
      }
      cmds.push_back(c);
    }
    out.push_back(std::move(cmds));
  }
  return out;
}

/// The frames a sequential replica takes at the checkpoint sequences: one
/// thread, batches in delivery order, the state kept in a std::map and
/// encoded by hand, so the reference shares no code with KvStore.
/// `key_sets`, when given, receives each checkpoint's key set.
std::vector<std::vector<std::uint8_t>> sequential_frames(
    const std::vector<std::vector<smr::Command>>& stream,
    std::vector<std::vector<smr::Key>>* key_sets = nullptr) {
  std::map<smr::Key, smr::Value> state;
  smr::SessionTable sessions;
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::uint64_t seq = 1; seq <= stream.size(); ++seq) {
    for (const smr::Command& c : stream[seq - 1]) {
      if (sessions.begin(c.client_id, c.sequence, nullptr) !=
          smr::SessionTable::Gate::kExecute) {
        continue;
      }
      smr::Response r;  // what KvService answers for these kinds
      r.client_id = c.client_id;
      r.sequence = c.sequence;
      switch (c.type) {
        case smr::OpType::kCreate:
          r.status = state.emplace(c.key, c.value).second ? smr::Status::kOk
                                                          : smr::Status::kAlreadyExists;
          break;
        case smr::OpType::kRemove:
          r.status = state.erase(c.key) != 0 ? smr::Status::kOk : smr::Status::kNotFound;
          break;
        default:
          state[c.key] = c.value;
          break;
      }
      sessions.finish(r);
    }
    if (seq % kInterval != 0) continue;
    smr::CheckpointRecord record;
    record.sequence = seq;
    record.log_horizon = seq + 1;
    auto put = [&record](std::uint64_t v) {
      const std::size_t n = record.state.size();
      record.state.resize(n + sizeof(v));
      std::memcpy(record.state.data() + n, &v, sizeof(v));
    };
    put(0x50534d524b560001ull);  // "PSMRKV" v1
    put(state.size());
    std::vector<smr::Key> keys;
    for (const auto& [k, v] : state) {
      put(k);
      put(v);
      keys.push_back(k);
    }
    record.sessions = sessions.serialize();
    frames.push_back(smr::encode_checkpoint(record));
    if (key_sets != nullptr) key_sets->push_back(std::move(keys));
  }
  return frames;
}

struct RunResult {
  std::vector<std::vector<std::uint8_t>> frames;  // encoded checkpoints, in order
  /// `graph.index.activations` of the scheduler's registry.
  std::uint64_t index_activations = 0;
};

/// Every frame of the run equals the sequential reference's. The last
/// checkpoint is taken at the final sequence, so this covers the final
/// state and session table too.
void expect_frames(const RunResult& result,
                   const std::vector<std::vector<std::uint8_t>>& expected,
                   std::uint64_t seed) {
  ASSERT_EQ(result.frames.size(), expected.size()) << "seed " << seed;
  for (std::size_t f = 0; f < expected.size(); ++f) {
    EXPECT_EQ(result.frames[f], expected[f])
        << "checkpoint " << f << " (seed " << seed
        << ") differs from the sequential reference";
  }
}

RunResult run_scheduler(const core::SchedulerOptions& cfg,
                        const std::vector<std::vector<smr::Command>>& stream) {
  kv::KvStore store;
  kv::KvService service(store);
  smr::SessionTable sessions;
  std::atomic<bool> open{false};
  auto executor = [&](const smr::Batch& b) {
    while (!open.load(std::memory_order_acquire)) std::this_thread::yield();
    for (const smr::Command& c : b.commands()) {
      if (sessions.begin(c.client_id, c.sequence, nullptr) !=
          smr::SessionTable::Gate::kExecute) {
        continue;
      }
      sessions.finish(service.execute(c));
    }
  };
  core::Scheduler sched(cfg, executor);

  smr::CheckpointManager::Options copts;
  copts.interval = kInterval;
  smr::CheckpointManager mgr(
      copts,
      smr::CheckpointManager::Barrier{
          [&](std::uint64_t seq) { sched.drain_to_sequence(seq); },
          [&] { sched.release_barrier(); }},
      [&] { return store.serialize(); }, &sessions);

  RunResult out;
  mgr.set_on_checkpoint([&](const smr::CheckpointPtr& record) {
    out.frames.push_back(smr::encode_checkpoint(*record));
  });

  sched.start();
  for (std::uint64_t seq = 1; seq <= kBatches; ++seq) {
    if (seq == kGatedDeliveries + 1) open.store(true, std::memory_order_release);
    auto batch = std::make_shared<smr::Batch>(
        std::vector<smr::Command>(stream[seq - 1]));
    batch->set_sequence(seq);
    EXPECT_TRUE(sched.deliver(std::move(batch)));
    mgr.on_delivered(seq);
  }
  sched.wait_idle();
  sched.stop();
  out.index_activations = sched.stats().counter("graph.index.activations");
  return out;
}

TEST(CheckpointLockstep, BitIdenticalAcrossSchedulersAndIndexModes) {
  for (const std::uint64_t seed : {3ull, 17ull}) {
    const auto stream = command_stream(seed);
    const auto expected = sequential_frames(stream);
    ASSERT_EQ(expected.size(), kBatches / kInterval);

    core::SchedulerOptions cfg;
    cfg.workers = 4;
    const RunResult run = run_scheduler(cfg, stream);
    // The run crossed from the scan to the indexed insert path.
    EXPECT_GT(run.index_activations, 0u) << "seed " << seed;
    expect_frames(run, expected, seed);

    // Sanity on the reference frames themselves: decodable, checksum-clean,
    // taken at the scripted sequences.
    for (std::size_t f = 0; f < expected.size(); ++f) {
      const auto decoded = smr::decode_checkpoint(expected[f]);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(decoded->sequence, (f + 1) * kInterval);
      EXPECT_EQ(decoded->log_horizon, (f + 1) * kInterval + 1);
      EXPECT_FALSE(decoded->state.empty());
      EXPECT_FALSE(decoded->sessions.empty());
    }
  }
}

TEST(CheckpointLockstep, KeySetChurnKeepsFramesIdenticalToSequential) {
  for (const std::uint64_t seed : {5ull, 23ull}) {
    const auto stream = churn_stream(seed);
    std::vector<std::vector<smr::Key>> key_sets;
    const auto expected = sequential_frames(stream, &key_sets);
    ASSERT_EQ(expected.size(), kBatches / kInterval);
    // The stream does what it claims: the key set moves into checkpoints 1
    // and 3 (sorting path) and stands still into checkpoints 2 and 4 (rank
    // path).
    ASSERT_EQ(key_sets.size(), 4u);
    EXPECT_FALSE(key_sets[0].empty());
    EXPECT_EQ(key_sets[1], key_sets[0]);
    EXPECT_NE(key_sets[2], key_sets[1]);
    EXPECT_EQ(key_sets[3], key_sets[2]);

    core::SchedulerOptions cfg;
    cfg.workers = 4;
    const RunResult run = run_scheduler(cfg, stream);
    EXPECT_GT(run.index_activations, 0u) << "seed " << seed;
    expect_frames(run, expected, seed);
  }
}

}  // namespace
}  // namespace psmr
