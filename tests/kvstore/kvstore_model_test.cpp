// KvStore against a std::map model. Seeded random sequences of create,
// read, update, remove, clear and deserialize run on both; after every
// step read/size/digest must agree, and at random points serialize() must
// equal a reference "PSMRKV" v1 encoder over the model, byte for byte.
//
// serialize() has two paths (DESIGN.md §12.2): a rank path that scatters
// entries by their cached sorted position while the key set is unchanged,
// and a sorting path that rebuilds those positions after any insert or
// remove. The sequences are shaped to cross between them constantly —
// back-to-back serializes, a create or remove right after a serialize —
// and to exercise the flat tables' corners: one shard holding every key
// (removes land mid probe run and shift the run back), and growth from
// the smallest table to thousands of slots. A last test serializes in a
// loop while writers churn the key set; it is meant to be run under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "kvstore/kvstore.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace psmr::kv {
namespace {

using Model = std::map<smr::Key, smr::Value>;

/// The frame format, written independently of the store: magic, count,
/// then (key, value) in ascending key order.
std::vector<std::uint8_t> reference_frame(const Model& model) {
  std::vector<std::uint8_t> out;
  auto put = [&out](std::uint64_t v) {
    std::uint8_t b[8];
    std::memcpy(b, &v, sizeof(v));
    out.insert(out.end(), b, b + sizeof(b));
  };
  put(0x50534d524b560001ull);  // "PSMRKV" v1
  put(model.size());
  for (const auto& [k, v] : model) {
    put(k);
    put(v);
  }
  return out;
}

/// The documented digest: an order-insensitive sum of per-entry mixes.
std::uint64_t reference_digest(const Model& model) {
  std::uint64_t d = 0;
  for (const auto& [k, v] : model) {
    d += util::mix64(util::hash_combine(util::mix64(k), util::mix64(v)));
  }
  return d;
}

void expect_same(const KvStore& store, const Model& model, smr::Key probe,
                 const char* step) {
  ASSERT_EQ(store.size(), model.size()) << step;
  ASSERT_EQ(store.digest(), reference_digest(model)) << step;
  smr::Value got = 0;
  const auto it = model.find(probe);
  if (it == model.end()) {
    ASSERT_EQ(store.read(probe, got), smr::Status::kNotFound) << step << " key " << probe;
  } else {
    ASSERT_EQ(store.read(probe, got), smr::Status::kOk) << step << " key " << probe;
    ASSERT_EQ(got, it->second) << step << " key " << probe;
  }
}

struct Shape {
  std::size_t shards;
  std::uint64_t key_space;  // keys drawn from [0, key_space)
  std::size_t steps;
};

void run_model(const Shape& shape, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed << " shards " << shape.shards
                                    << " keys " << shape.key_space);
  util::Xoshiro256 rng(seed);
  KvStore store(shape.shards);
  Model model;
  std::vector<std::uint8_t> last_frame = reference_frame(model);
  std::size_t serializes = 0, rank_repeats = 0, churn_after = 0;

  auto check_serialize = [&] {
    const auto frame = store.serialize();
    last_frame = reference_frame(model);
    ++serializes;
    ASSERT_EQ(frame, last_frame) << "serialize #" << serializes;
  };

  for (std::size_t step = 0; step < shape.steps; ++step) {
    const smr::Key key = rng.next_below(shape.key_space);
    const smr::Value value = rng();
    const std::uint64_t op = rng.next_below(100);
    const char* name = "";
    if (op < 30) {
      name = "create";
      const bool absent = model.count(key) == 0;
      ASSERT_EQ(store.create(key, value),
                absent ? smr::Status::kOk : smr::Status::kAlreadyExists);
      if (absent) model[key] = value;
    } else if (op < 50) {
      name = "update";
      ASSERT_EQ(store.update(key, value), smr::Status::kOk);
      model[key] = value;
    } else if (op < 72) {
      name = "remove";
      const bool present = model.erase(key) != 0;
      ASSERT_EQ(store.remove(key), present ? smr::Status::kOk : smr::Status::kNotFound);
    } else if (op < 80) {
      name = "read";
    } else if (op < 97) {
      name = "serialize";
      check_serialize();
      if (rng.next_bool(0.5)) {
        // Same key set: the rank path must reproduce the frame.
        check_serialize();
        ++rank_repeats;
      } else {
        // Key set changes right after the ranks were cached: the next
        // serialize must notice and sort.
        const smr::Key fresh = rng.next_below(shape.key_space);
        if (model.count(fresh) != 0) {
          ASSERT_EQ(store.remove(fresh), smr::Status::kOk);
          model.erase(fresh);
        } else {
          ASSERT_EQ(store.create(fresh, value), smr::Status::kOk);
          model[fresh] = value;
        }
        ++churn_after;
        check_serialize();
      }
    } else if (op < 99) {
      name = "deserialize";
      // Restore an earlier frame: the key set jumps wholesale.
      ASSERT_TRUE(store.deserialize(last_frame));
      model.clear();
      for (std::size_t off = 16; off < last_frame.size(); off += 16) {
        smr::Key k = 0;
        smr::Value v = 0;
        std::memcpy(&k, last_frame.data() + off, sizeof(k));
        std::memcpy(&v, last_frame.data() + off + 8, sizeof(v));
        model[k] = v;
      }
    } else {
      name = "clear";
      store.clear();
      model.clear();
    }
    if (::testing::Test::HasFatalFailure()) return;
    expect_same(store, model, key, name);
    if (::testing::Test::HasFatalFailure()) return;
  }
  check_serialize();
  const std::vector<std::pair<smr::Key, smr::Value>> sorted(model.begin(), model.end());
  EXPECT_EQ(store.snapshot(), sorted);
  EXPECT_GT(rank_repeats, 0u);
  EXPECT_GT(churn_after, 0u);
}

TEST(KvStoreModel, RandomSequencesMatchMap) {
  // One shard: every key shares one table, so removes constantly fall in
  // the middle of probe runs. 256 shards: the replica's layout.
  const Shape shapes[] = {
      {1, 64, 4000}, {1, 4096, 6000}, {4, 512, 6000}, {256, 2000, 6000}, {256, 1u << 30, 3000},
  };
  for (const Shape& shape : shapes) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      run_model(shape, seed);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(KvStoreModel, GrowthAndMidRunRemovesInOneShard) {
  // Grow one table from its first allocation to thousands of slots,
  // serializing at every doubling (sorting path, then rank path), then
  // hollow it out in an interleaved pattern so most removes shift a run.
  KvStore store(1);
  Model model;
  for (smr::Key k = 0; k < 5000; ++k) {
    const smr::Key key = k * 0x9e3779b97f4a7c15ull;
    ASSERT_EQ(store.create(key, k), smr::Status::kOk);
    model[key] = k;
    if ((k & (k + 1)) == 0) {  // k + 1 is a power of two
      ASSERT_EQ(store.serialize(), reference_frame(model)) << "after " << k + 1;
      ASSERT_EQ(store.serialize(), reference_frame(model)) << "after " << k + 1;
    }
  }
  for (smr::Key k = 0; k < 5000; ++k) {
    if (k % 3 == 0) continue;
    const smr::Key key = k * 0x9e3779b97f4a7c15ull;
    ASSERT_EQ(store.remove(key), smr::Status::kOk);
    model.erase(key);
    if (k % 97 == 0) {
      ASSERT_EQ(store.serialize(), reference_frame(model)) << "remove " << k;
    }
  }
  for (const auto& [k, v] : model) {
    smr::Value got = 0;
    ASSERT_EQ(store.read(k, got), smr::Status::kOk);
    ASSERT_EQ(got, v);
  }
  EXPECT_EQ(store.size(), model.size());
  EXPECT_EQ(store.digest(), reference_digest(model));
  EXPECT_EQ(store.serialize(), reference_frame(model));
  EXPECT_EQ(store.serialize(), reference_frame(model));
}

TEST(KvStoreModel, SerializeUnderConcurrentChurnYieldsLoadableFrames) {
  // Writers update values and, in churn phases, create and remove keys of
  // their own ranges while a reader serializes in a loop. Churn phases keep
  // the sorting path busy; in quiet phases the rank path scans while values
  // change under it. No frame may be torn: every one must pass
  // deserialize()'s validation (sorted, duplicate-free, count matches) and
  // hold all the stable keys, which are never removed.
  constexpr int kWriters = 3;
  constexpr smr::Key kStable = 2000;
  KvStore store(16);
  for (smr::Key k = 0; k < kStable; ++k) store.update(k, k);

  std::atomic<bool> stop{false};
  std::atomic<bool> churn{true};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&store, &stop, &churn, t] {
      util::Xoshiro256 rng(static_cast<std::uint64_t>(t) + 7);
      const smr::Key base = kStable + static_cast<smr::Key>(t) * 100000;
      std::uint64_t round = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        store.update(rng.next_below(kStable), round);  // value-only change
        if (churn.load(std::memory_order_relaxed)) {
          const smr::Key mine = base + rng.next_below(1000);
          if (rng.next_bool(0.5)) {
            store.create(mine, round);
          } else {
            store.remove(mine);
          }
        }
        ++round;
      }
    });
  }

  std::vector<std::uint8_t> torn;  // the first bad frame, checked after join
  int bad_at = -1;
  for (int i = 0; i < 120 && bad_at < 0; ++i) {
    churn.store(i / 3 % 2 == 0);
    const auto frame = store.serialize();
    KvStore fresh;
    bool ok = fresh.deserialize(frame);
    for (smr::Key k = 0; ok && k < kStable; k += 97) {
      smr::Value v = 0;
      ok = fresh.read(k, v) == smr::Status::kOk;
    }
    if (!ok) {
      bad_at = i;
      torn = frame;
    }
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  ASSERT_EQ(bad_at, -1) << "frame " << bad_at << " (" << torn.size()
                        << " bytes) is torn or lost a stable key";

  // Quiesced again: the frame agrees with reads, size and digest, and the
  // rank path reproduces it.
  const auto snapshot = store.snapshot();
  const Model model(snapshot.begin(), snapshot.end());
  EXPECT_EQ(store.size(), model.size());
  EXPECT_EQ(store.digest(), reference_digest(model));
  for (const auto& [k, v] : model) {
    smr::Value got = 0;
    ASSERT_EQ(store.read(k, got), smr::Status::kOk);
    ASSERT_EQ(got, v);
  }
  EXPECT_EQ(store.serialize(), reference_frame(model));
  EXPECT_EQ(store.serialize(), reference_frame(model));
}

}  // namespace
}  // namespace psmr::kv
