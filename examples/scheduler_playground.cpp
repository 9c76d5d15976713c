// Scheduler playground: feed a hand-written batch script through the
// abridged dependency graph and watch it evolve — including the Graphviz
// DOT rendering of every step, the paper's Figure 2 scenario, and a
// side-by-side of exact vs bitmap conflict detection (false positives
// included).
//
//   ./build/examples/scheduler_playground          # human-readable trace
//   ./build/examples/scheduler_playground --dot    # DOT snapshots only
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "core/dependency_graph.hpp"
#include "smr/batch.hpp"

using namespace psmr;

namespace {

smr::BatchPtr make_batch(std::uint64_t seq, std::initializer_list<smr::Key> keys,
                         const smr::BitmapConfig* bitmap = nullptr) {
  std::vector<smr::Command> cmds;
  for (smr::Key k : keys) {
    smr::Command c;
    c.type = smr::OpType::kUpdate;
    c.key = k;
    cmds.push_back(c);
  }
  auto b = std::make_shared<smr::Batch>(std::move(cmds));
  b->set_sequence(seq);
  if (bitmap != nullptr) b->build_bitmap(*bitmap);
  return b;
}

void show(const core::DependencyGraph& g, const char* note, bool dot) {
  if (dot) {
    std::printf("// %s\n%s\n", note, g.to_dot().c_str());
  } else {
    std::printf("  %-46s graph size=%zu edges=%zu free=%zu\n", note, g.size(),
                g.num_edges(), g.num_free());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool dot = argc > 1 && std::strcmp(argv[1], "--dot") == 0;

  // ---------------------------------------------------------------------
  std::printf("=== Paper Figure 2: commands a..f, batches of two ===\n");
  std::printf("B1={a,b} B2={c,d} B3={e,f};  b,d,f all write key 7\n\n");
  {
    core::DependencyGraph g(core::ConflictMode::kKeysNested);
    g.insert(make_batch(1, {100, 7}));  // a, b
    show(g, "insert B1 (keys 100,7)", dot);
    g.insert(make_batch(2, {200, 7}));  // c, d
    show(g, "insert B2 (keys 200,7) -> depends on B1", dot);
    g.insert(make_batch(3, {300, 7}));  // e, f
    show(g, "insert B3 (keys 300,7) -> depends on B1,B2", dot);

    auto* b1 = g.take_oldest_free();
    show(g, "worker takes B1 (oldest free)", dot);
    std::printf("  note: B2, B3 stay blocked while B1 executes\n");
    g.remove(b1);
    show(g, "B1 done & removed -> B2 becomes free", dot);
    auto* b2 = g.take_oldest_free();
    g.remove(b2);
    auto* b3 = g.take_oldest_free();
    g.remove(b3);
    show(g, "B2, B3 executed in delivery order", dot);
  }

  // ---------------------------------------------------------------------
  std::printf("\n=== Independent batches run concurrently ===\n\n");
  {
    core::DependencyGraph g(core::ConflictMode::kKeysNested);
    g.insert(make_batch(1, {1, 2}));
    g.insert(make_batch(2, {3, 4}));
    g.insert(make_batch(3, {5, 6}));
    show(g, "3 disjoint batches inserted", dot);
    std::printf("  all %zu are free: a 3-worker pool executes them in parallel\n",
                g.num_free());
  }

  // ---------------------------------------------------------------------
  std::printf("\n=== Bitmap false positives serialize independent batches ===\n\n");
  {
    smr::BitmapConfig tiny;
    tiny.bits = 8;  // absurdly small: hash collisions guaranteed
    core::DependencyGraph exact(core::ConflictMode::kKeysNested);
    core::DependencyGraph bitmap(core::ConflictMode::kBitmap);
    for (std::uint64_t s = 1; s <= 5; ++s) {
      exact.insert(make_batch(s, {s * 1000, s * 1000 + 1, s * 1000 + 2}));
      bitmap.insert(make_batch(s, {s * 1000, s * 1000 + 1, s * 1000 + 2}, &tiny));
    }
    std::printf("  5 batches of 3 disjoint keys each, 8-bit bitmaps:\n");
    std::printf("    exact detection:  %zu edges (none needed)\n", exact.num_edges());
    std::printf("    bitmap detection: %zu edges (all false positives)\n",
                bitmap.num_edges());
    std::printf("  false positives cost concurrency, never safety (paper §V).\n");
    smr::BitmapConfig big;
    big.bits = 1024000;
    core::DependencyGraph roomy(core::ConflictMode::kBitmap);
    for (std::uint64_t s = 1; s <= 5; ++s) {
      roomy.insert(make_batch(s, {s * 1000}, &big));
    }
    std::printf("  with 1 Mbit bitmaps (the paper's size): %zu edges.\n",
                roomy.num_edges());
  }

  // ---------------------------------------------------------------------
  std::printf("\n=== Cost accounting: comparisons per insert ===\n\n");
  {
    smr::BitmapConfig cfg;
    cfg.bits = 1024000;
    for (auto mode : {core::ConflictMode::kKeysNested, core::ConflictMode::kBitmap}) {
      // IndexMode::kScan is the paper's full pairwise scan — the cost this
      // demo accounts. The indexed insert path (DESIGN.md §4.1) routes the
      // same inserts through the aggregate bitmap + posting lists instead.
      for (auto index : {core::IndexMode::kScan, core::IndexMode::kIndexed}) {
        core::DependencyGraph g(mode, index);
        for (std::uint64_t s = 1; s <= 6; ++s) {
          std::vector<smr::Command> cmds;
          for (int i = 0; i < 100; ++i) {
            smr::Command c;
            c.type = smr::OpType::kUpdate;
            c.key = s * 1'000'000 + static_cast<smr::Key>(i);
            cmds.push_back(c);
          }
          auto b = std::make_shared<smr::Batch>(std::move(cmds));
          b->set_sequence(s);
          b->build_bitmap(cfg);
          g.insert(std::move(b));
        }
        std::printf(
            "  %-14s %-8s: %8llu comparison units, %2llu pair tests "
            "for 6 inserts of 100-cmd batches\n",
            core::to_string(mode), core::to_string(index),
            static_cast<unsigned long long>(g.conflict_stats().comparisons),
            static_cast<unsigned long long>(g.conflict_stats().tests));
      }
    }
    std::printf("  (keys-nested: command pairs; bitmap: 64-bit words scanned.\n"
                "   The indexed path skips pair tests whose footprints miss\n"
                "   the aggregate.)\n");
  }
  return 0;
}
