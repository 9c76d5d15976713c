// Property tests for the inverted-index insert path (IndexMode::kIndexed,
// and kAuto across its size-driven index activations and deactivations):
// for both conflict modes and any operation mix, the indexed graph must be
// EDGE-IDENTICAL to the paper's full scan at every step — the index is a
// pure lookup optimization, so any divergence is a determinism bug. Also
// proves the layered no-false-negative guarantee: bitmap-mode graphs always
// contain at least the edges exact key analysis would add.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "core/dependency_graph.hpp"
#include "util/rng.hpp"

namespace psmr::core {
namespace {

using Edges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

struct WorkloadConfig {
  /// Keys are drawn from [0, key_space); small spaces force real conflicts.
  std::uint64_t key_space = 64;
  std::size_t max_batch = 6;
  double read_fraction = 0.3;
  /// Bitmap digest size. Deliberately small so hash collisions produce
  /// false-positive conflicts — the equivalence must hold through them.
  std::size_t bitmap_bits = 512;
};

smr::BatchPtr random_batch(util::Xoshiro256& rng, std::uint64_t seq,
                           ConflictMode mode, const WorkloadConfig& wl) {
  const std::size_t n = 1 + rng.next_below(wl.max_batch);
  std::vector<smr::Command> cmds;
  cmds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    smr::Command c;
    c.type = rng.next_double() < wl.read_fraction ? smr::OpType::kRead
                                                  : smr::OpType::kUpdate;
    c.key = rng.next_below(wl.key_space);
    cmds.push_back(c);
  }
  auto b = std::make_shared<smr::Batch>(std::move(cmds));
  b->set_sequence(seq);
  if (mode == ConflictMode::kBitmap) {
    smr::BitmapConfig cfg;
    cfg.bits = wl.bitmap_bits;
    b->build_bitmap(cfg);
  }
  return b;
}

/// Drives an indexed and a scanning graph through an identical random
/// insert/take/remove/remove_newest schedule, asserting edge-identity and
/// structural+index invariants after every operation.
void run_lockstep(ConflictMode mode, const WorkloadConfig& wl, std::uint64_t seed,
                  int steps) {
  DependencyGraph indexed(mode, IndexMode::kIndexed);
  DependencyGraph scanned(mode, IndexMode::kScan);
  util::Xoshiro256 rng(seed);
  std::uint64_t seq = 0;
  // Taken nodes, kept aligned: the graphs are structurally identical, so
  // take_oldest_free returns the same sequence from both.
  std::vector<DependencyGraph::Node*> taken_idx, taken_scan;

  for (int step = 0; step < steps; ++step) {
    const double dice = rng.next_double();
    if (dice < 0.45) {
      const auto batch = random_batch(rng, ++seq, mode, wl);
      indexed.insert(batch);
      scanned.insert(batch);
    } else if (dice < 0.65) {
      DependencyGraph::Node* a = indexed.take_oldest_free();
      DependencyGraph::Node* b = scanned.take_oldest_free();
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a != nullptr) {
        ASSERT_EQ(a->seq, b->seq);
        taken_idx.push_back(a);
        taken_scan.push_back(b);
      }
    } else if (dice < 0.9) {
      if (taken_idx.empty()) continue;
      const std::size_t i = rng.next_below(taken_idx.size());
      const std::size_t freed_idx = indexed.remove(taken_idx[i]);
      const std::size_t freed_scan = scanned.remove(taken_scan[i]);
      ASSERT_EQ(freed_idx, freed_scan);
      taken_idx.erase(taken_idx.begin() + static_cast<std::ptrdiff_t>(i));
      taken_scan.erase(taken_scan.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      // remove_newest right after an insert — the probe-then-detach cycle
      // the microbenchmark uses. Inserting first guarantees the newest node
      // is untaken and has no outgoing edges (API precondition).
      const auto batch = random_batch(rng, ++seq, mode, wl);
      indexed.insert(batch);
      scanned.insert(batch);
      ASSERT_EQ(indexed.edges(), scanned.edges());
      indexed.remove_newest();
      scanned.remove_newest();
    }
    ASSERT_EQ(indexed.edges(), scanned.edges());
    ASSERT_EQ(indexed.num_free(), scanned.num_free());
    ASSERT_EQ(indexed.num_edges(), scanned.num_edges());
    indexed.check_invariants();
    scanned.check_invariants();
  }

  // Drain both graphs completely; orders must match throughout.
  while (!indexed.empty() || !taken_idx.empty()) {
    for (;;) {
      DependencyGraph::Node* a = indexed.take_oldest_free();
      DependencyGraph::Node* b = scanned.take_oldest_free();
      ASSERT_EQ(a == nullptr, b == nullptr);
      if (a == nullptr) break;
      ASSERT_EQ(a->seq, b->seq);
      taken_idx.push_back(a);
      taken_scan.push_back(b);
    }
    ASSERT_FALSE(taken_idx.empty()) << "deadlock: nothing runnable";
    indexed.remove(taken_idx.back());
    scanned.remove(taken_scan.back());
    taken_idx.pop_back();
    taken_scan.pop_back();
    ASSERT_EQ(indexed.edges(), scanned.edges());
    indexed.check_invariants();
    scanned.check_invariants();
  }
  EXPECT_TRUE(scanned.empty());
}

class GraphIndexProperty : public ::testing::TestWithParam<ConflictMode> {};

TEST_P(GraphIndexProperty, EdgeIdenticalToScanUnderRandomSchedules) {
  WorkloadConfig wl;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_lockstep(GetParam(), wl, seed, 300);
  }
}

TEST_P(GraphIndexProperty, EdgeIdenticalOnConflictFreeDisjointKeys) {
  // Disjoint key ranges: the aggregate fast path should carry nearly every
  // insert; equivalence must still hold exactly.
  WorkloadConfig wl;
  wl.key_space = 1'000'000'000;  // collisions/conflicts effectively absent
  wl.bitmap_bits = 1 << 16;
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    run_lockstep(GetParam(), wl, seed, 300);
  }
}

TEST_P(GraphIndexProperty, EdgeIdenticalUnderHeavyConflicts) {
  WorkloadConfig wl;
  wl.key_space = 4;  // almost everything chains
  for (std::uint64_t seed = 31; seed <= 34; ++seed) {
    run_lockstep(GetParam(), wl, seed, 200);
  }
}

/// Drives a kAuto graph and a kScan twin through `cycles` grow/drain rounds
/// that cross kAuto's thresholds both ways: each grow phase inserts until
/// residency passes kIndexActivateAbove, each drain phase empties the graph
/// to kIndexDeactivateAtOrBelow or below, and both phases mix in takes,
/// removes, and remove_newest (of a just-inserted probe and of whatever
/// node is newest, taken or not). Edges are compared after every operation
/// and both graphs' invariants checked — including kAuto's size rule.
void run_transitions(ConflictMode mode, const WorkloadConfig& wl, std::uint64_t seed,
                     int cycles) {
  constexpr std::size_t kOn = DependencyGraph::kIndexActivateAbove;
  constexpr std::size_t kOff = DependencyGraph::kIndexDeactivateAtOrBelow;
  DependencyGraph autog(mode, IndexMode::kAuto);
  DependencyGraph scanned(mode, IndexMode::kScan);
  util::Xoshiro256 rng(seed);
  std::uint64_t seq = 0;
  std::set<std::uint64_t> resident;
  std::vector<DependencyGraph::Node*> taken_auto, taken_scan;

  const auto check = [&] {
    ASSERT_EQ(autog.edges(), scanned.edges());
    ASSERT_EQ(autog.num_free(), scanned.num_free());
    ASSERT_EQ(autog.size(), resident.size());
    autog.check_invariants();
    scanned.check_invariants();
  };
  const auto insert = [&] {
    const auto batch = random_batch(rng, ++seq, mode, wl);
    autog.insert(batch);
    scanned.insert(batch);
    resident.insert(seq);
  };
  const auto take = [&] {
    DependencyGraph::Node* a = autog.take_oldest_free();
    DependencyGraph::Node* b = scanned.take_oldest_free();
    ASSERT_EQ(a == nullptr, b == nullptr);
    if (a == nullptr) return;
    ASSERT_EQ(a->seq, b->seq);
    taken_auto.push_back(a);
    taken_scan.push_back(b);
  };
  const auto remove_taken = [&] {
    if (taken_auto.empty()) return;
    const std::size_t i = rng.next_below(taken_auto.size());
    resident.erase(taken_auto[i]->seq);
    ASSERT_EQ(autog.remove(taken_auto[i]), scanned.remove(taken_scan[i]));
    taken_auto.erase(taken_auto.begin() + static_cast<std::ptrdiff_t>(i));
    taken_scan.erase(taken_scan.begin() + static_cast<std::ptrdiff_t>(i));
  };
  const auto remove_newest = [&] {
    if (resident.empty()) return;
    // The newest node never has successors, so remove_newest applies to it
    // in any state; a taken one leaves the taken lists too.
    const std::uint64_t newest = *resident.rbegin();
    for (std::size_t i = 0; i < taken_auto.size(); ++i) {
      if (taken_auto[i]->seq != newest) continue;
      taken_auto.erase(taken_auto.begin() + static_cast<std::ptrdiff_t>(i));
      taken_scan.erase(taken_scan.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
    autog.remove_newest();
    scanned.remove_newest();
    resident.erase(newest);
  };

  for (int c = 0; c < cycles; ++c) {
    const std::size_t peak = kOn + 2 + rng.next_below(8);
    while (resident.size() < peak) {
      const double dice = rng.next_double();
      if (dice < 0.6) {
        insert();
      } else if (dice < 0.7) {
        insert();  // the probe-then-detach cycle the microbenchmark uses
        check();
        remove_newest();
      } else if (dice < 0.85) {
        take();
      } else {
        remove_taken();
      }
      check();
    }
    ASSERT_TRUE(autog.index_active()) << "grow phase never built the index";

    const std::size_t floor = rng.next_below(kOff + 1);
    while (resident.size() > floor) {
      const double dice = rng.next_double();
      if (dice < 0.1) {
        insert();
      } else if (dice < 0.2) {
        remove_newest();
      } else if (dice < 0.55) {
        take();
      } else {
        remove_taken();
      }
      check();
      if (taken_auto.empty() && autog.num_free() == 0) {
        ASSERT_TRUE(resident.empty()) << "deadlock: nothing runnable";
      }
    }
    ASSERT_FALSE(autog.index_active()) << "drain phase never dropped the index";
  }
  EXPECT_EQ(autog.index_stats().activations, static_cast<std::uint64_t>(cycles));
  EXPECT_EQ(autog.index_stats().deactivations, static_cast<std::uint64_t>(cycles));
}

TEST_P(GraphIndexProperty, AutoEdgeIdenticalAcrossIndexTransitions) {
  WorkloadConfig wl;
  for (std::uint64_t seed = 61; seed <= 64; ++seed) {
    run_transitions(GetParam(), wl, seed, 6);
  }
}

TEST_P(GraphIndexProperty, AutoEdgeIdenticalAcrossTransitionsUnderHeavyConflicts) {
  WorkloadConfig wl;
  wl.key_space = 4;  // long chains: drains must unwind them in order
  for (std::uint64_t seed = 71; seed <= 72; ++seed) {
    run_transitions(GetParam(), wl, seed, 4);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, GraphIndexProperty,
                         ::testing::Values(ConflictMode::kKeysNested, ConflictMode::kBitmap),
                         [](const auto& param_info) {
                           return param_info.param == ConflictMode::kBitmap ? "Bitmap"
                                                                            : "KeysNested";
                         });

TEST(GraphIndexProperty, RemoveNewestKeepsIndexInSync) {
  // Dedicated remove_newest schedule: insert a probe, detach it, repeat —
  // the microbenchmark's cycle — against residents that stay put.
  for (ConflictMode mode : {ConflictMode::kKeysNested, ConflictMode::kBitmap}) {
    WorkloadConfig wl;
    wl.key_space = 32;
    DependencyGraph indexed(mode, IndexMode::kIndexed);
    DependencyGraph scanned(mode, IndexMode::kScan);
    util::Xoshiro256 rng(7);
    std::uint64_t seq = 0;
    for (int i = 0; i < 16; ++i) {
      const auto b = random_batch(rng, ++seq, mode, wl);
      indexed.insert(b);
      scanned.insert(b);
      // Mark residents taken so the probe cannot drain them.
      indexed.take_oldest_free();
      scanned.take_oldest_free();
    }
    for (int i = 0; i < 200; ++i) {
      const auto probe = random_batch(rng, ++seq, mode, wl);
      indexed.insert(probe);
      scanned.insert(probe);
      ASSERT_EQ(indexed.edges(), scanned.edges());
      indexed.remove_newest();
      scanned.remove_newest();
      ASSERT_EQ(indexed.edges(), scanned.edges());
      if (i % 50 == 0) {
        indexed.check_invariants();
        scanned.check_invariants();
      }
    }
  }
}

TEST(GraphIndexProperty, BitmapModesNeverMissKeyModeConflicts) {
  // Layered no-false-negative check: every edge the EXACT key analysis
  // derives must appear in the indexed bitmap graph too (bitmaps may only
  // ADD false-positive edges, never drop true ones).
  WorkloadConfig wl;
  wl.key_space = 48;
  wl.bitmap_bits = 256;  // aggressively collision-prone
  for (std::uint64_t seed = 51; seed <= 56; ++seed) {
    util::Xoshiro256 rng(seed);
    DependencyGraph exact(ConflictMode::kKeysNested, IndexMode::kScan);
    DependencyGraph dense_idx(ConflictMode::kBitmap, IndexMode::kIndexed);
    for (std::uint64_t s = 1; s <= 40; ++s) {
      const auto b = random_batch(rng, s, ConflictMode::kBitmap, wl);
      exact.insert(b);
      dense_idx.insert(b);
    }
    const Edges exact_edges = exact.edges();
    const Edges dense_edges = dense_idx.edges();
    for (const auto& e : exact_edges) {
      EXPECT_TRUE(std::find(dense_edges.begin(), dense_edges.end(), e) !=
                  dense_edges.end())
          << "bitmap mode missed exact conflict " << e.first << "->" << e.second;
    }
  }
}

TEST(GraphIndexProperty, FastPathSkipsAccountedOnDisjointWork) {
  // Contention-free batches over huge key spaces: after warm-up nearly all
  // inserts should take the aggregate fast path (zero pairwise tests).
  DependencyGraph g(ConflictMode::kKeysNested, IndexMode::kIndexed);
  std::uint64_t seq = 0;
  for (int i = 0; i < 64; ++i) {
    std::vector<smr::Command> cmds;
    for (int k = 0; k < 4; ++k) {
      smr::Command c;
      c.type = smr::OpType::kUpdate;
      c.key = static_cast<std::uint64_t>(i) * 1'000'003ull + static_cast<std::uint64_t>(k);
      cmds.push_back(c);
    }
    auto b = std::make_shared<smr::Batch>(std::move(cmds));
    b->set_sequence(++seq);
    g.insert(std::move(b));
  }
  const auto& st = g.index_stats();
  EXPECT_EQ(st.probes, 64u);
  // With 2^20 slots and ~256 occupied bits, collisions are rare: expect the
  // overwhelming majority of inserts to skip pairwise testing entirely.
  EXPECT_GE(st.fast_path_skips, 60u);
  EXPECT_EQ(g.num_edges(), 0u);
  g.check_invariants();
}

}  // namespace
}  // namespace psmr::core
