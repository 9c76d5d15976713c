// Micro-benchmarks of the scheduler's primitive costs (google-benchmark).
//
// BM_GraphInsert quantifies the §IV motivation: the cost of adding a
// command/batch to the dependency graph is proportional to the number of
// independent pending batches it must be compared against — and the
// per-comparison constant is what separates CBASE's key-by-key analysis
// from the paper's bitmap scheme.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dependency_graph.hpp"
#include "core/scheduler.hpp"
#include "host.hpp"
#include "kvstore/kvstore.hpp"
#include "obs/metrics.hpp"
#include "smr/checkpoint.hpp"
#include "smr/codec.hpp"
#include "util/bitmap.hpp"
#include "util/rng.hpp"

namespace {

using psmr::core::ConflictMode;
using psmr::core::DependencyGraph;

psmr::smr::BatchPtr make_batch(std::uint64_t seq, std::size_t n_cmds,
                               std::uint64_t key_base,
                               const psmr::smr::BitmapConfig* bitmap) {
  std::vector<psmr::smr::Command> cmds;
  cmds.reserve(n_cmds);
  for (std::size_t i = 0; i < n_cmds; ++i) {
    psmr::smr::Command c;
    c.type = psmr::smr::OpType::kUpdate;
    c.key = key_base + i;
    cmds.push_back(c);
  }
  auto b = std::make_shared<psmr::smr::Batch>(std::move(cmds));
  b->set_sequence(seq);
  if (bitmap != nullptr) b->build_bitmap(*bitmap);
  return b;
}

ConflictMode mode_of(std::int64_t m) { return static_cast<ConflictMode>(m); }

/// args: {mode, batch_size, graph_size}
void BM_GraphInsert(benchmark::State& state) {
  const ConflictMode mode = mode_of(state.range(0));
  const std::size_t batch_size = static_cast<std::size_t>(state.range(1));
  const std::size_t graph_size = static_cast<std::size_t>(state.range(2));
  psmr::smr::BitmapConfig bitmap;
  bitmap.bits = 1024000;
  const bool use_bitmap = mode == ConflictMode::kBitmap;

  // The paper's scan: the §IV cost grows with the pending batches (the
  // default kAuto would switch to the index past 8 of them).
  DependencyGraph graph(mode, psmr::core::IndexMode::kScan);
  std::uint64_t seq = 0;
  // Pending, conflict-free batches; mark them taken so the probe batch is
  // always the unique free node and can be cycled in and out.
  for (std::size_t g = 0; g < graph_size; ++g) {
    graph.insert(make_batch(++seq, batch_size, (g + 1) * 10'000'000ull,
                            use_bitmap ? &bitmap : nullptr));
    benchmark::DoNotOptimize(graph.take_oldest_free());
  }

  std::uint64_t probe_base = 1ull << 40;
  for (auto _ : state) {
    // Probe construction (a client-side cost) stays outside the measured
    // region; only the monitor-side insert is timed.
    auto probe = make_batch(++seq, batch_size, probe_base, use_bitmap ? &bitmap : nullptr);
    probe_base += batch_size;
    const auto t0 = std::chrono::steady_clock::now();
    graph.insert(std::move(probe));
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    // A false positive can leave the probe blocked behind a taken pending
    // batch, so it cannot be drained through take/remove; detach it
    // directly (untimed support API).
    graph.remove_newest();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch_size));
  state.SetLabel(std::string(psmr::core::to_string(mode)) + " vs " +
                 std::to_string(graph_size) + " pending");
}
BENCHMARK(BM_GraphInsert)
    ->ArgsProduct({{0 /*keys-nested*/}, {1, 100, 200}, {1, 4, 16, 64}})
    ->ArgsProduct({{2 /*bitmap*/}, {100, 200}, {1, 4, 16, 64}})
    ->UseManualTime()
    ->Iterations(1000);

/// args: {mode, batch_size} — single conflict-free pair test.
void BM_ConflictTest(benchmark::State& state) {
  const ConflictMode mode = mode_of(state.range(0));
  const std::size_t batch_size = static_cast<std::size_t>(state.range(1));
  psmr::smr::BitmapConfig bitmap;
  bitmap.bits = 1024000;
  const bool use_bitmap = mode == ConflictMode::kBitmap;
  const auto a = make_batch(1, batch_size, 0, use_bitmap ? &bitmap : nullptr);
  const auto b = make_batch(2, batch_size, 1ull << 30, use_bitmap ? &bitmap : nullptr);
  psmr::core::ConflictDetector detect(mode);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect(*a, *b));
  }
  state.SetLabel(psmr::core::to_string(mode));
}
BENCHMARK(BM_ConflictTest)->ArgsProduct({{0, 2}, {1, 10, 100, 200}});

/// args: {bits, batch_size} — the digest cost the CLIENT proxy pays (§VI).
void BM_BitmapBuild(benchmark::State& state) {
  psmr::smr::BitmapConfig bitmap;
  bitmap.bits = static_cast<std::size_t>(state.range(0));
  const std::size_t batch_size = static_cast<std::size_t>(state.range(1));
  std::vector<psmr::smr::Command> cmds(batch_size);
  for (std::size_t i = 0; i < batch_size; ++i) {
    cmds[i].type = psmr::smr::OpType::kUpdate;
    cmds[i].key = i * 7919;
  }
  psmr::smr::Batch batch(cmds);
  for (auto _ : state) {
    batch.build_bitmap(bitmap);
    benchmark::DoNotOptimize(batch.bloom().bits_set());
  }
}
BENCHMARK(BM_BitmapBuild)->ArgsProduct({{102400, 1024000}, {100, 200}});

void BM_CodecRoundTrip(benchmark::State& state) {
  const std::size_t batch_size = static_cast<std::size_t>(state.range(0));
  psmr::smr::BitmapConfig bitmap;
  bitmap.bits = 102400;
  const auto batch = make_batch(1, batch_size, 123, &bitmap);
  for (auto _ : state) {
    const auto bytes = psmr::smr::encode_batch(*batch);
    auto decoded = psmr::smr::decode_batch(bytes, bitmap);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_CodecRoundTrip)->Arg(1)->Arg(100)->Arg(200);

void BM_KvStoreUpdate(benchmark::State& state) {
  psmr::kv::KvStore store(256);
  psmr::util::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.update(rng.next_below(1'000'000), 42));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvStoreUpdate);

// ---------------------------------------------------------------------------
// `--json` mode: deterministic scan-vs-indexed comparison, machine-readable.
//
// The IndexMode::kScan rows reproduce the pre-index insert path exactly (the
// paper's full pairwise scan), so each scan/indexed pair in the output is a
// before/after measurement of the same workload. Written to
// BENCH_scheduler.json in the working directory. `--smoke` shrinks the
// iteration counts for CI.
// ---------------------------------------------------------------------------

using psmr::core::IndexMode;

struct InsertMeasurement {
  /// ns per insert + take + remove cycle: median / min / max over reps
  /// (each rep's value is its mean over `iters` cycles).
  double cycle_ns_median = 0.0;
  double cycle_ns_min = 0.0;
  double cycle_ns_max = 0.0;
  /// Split of the median rep: the delivery thread's insert and the
  /// worker's take + remove — both run under the scheduler monitor.
  double insert_ns = 0.0;
  double remove_ns = 0.0;
  double pair_tests_per_insert = 0.0;
  double comparisons_per_test = 0.0;
  double fast_path_skip_fraction = 0.0;
  /// Whether the index was maintained during the timed cycles.
  bool index_active = false;
};

/// BM_GraphInsert's workload, measured deterministically: `pending`
/// conflict-free taken batches resident, one non-conflicting probe cycled
/// through the monitor's share of a batch's life — insert, then take +
/// remove — so the index pays for the postings it erases as well as the
/// ones it adds. prepare() runs untimed, as the Scheduler runs it outside
/// its monitor. A digest false positive can block the probe behind a
/// taken resident; it then leaves through remove_newest(), which erases the
/// same postings.
InsertMeasurement measure_graph_insert(ConflictMode mode, IndexMode index,
                                       std::size_t batch_size, std::size_t pending,
                                       std::size_t iters, std::size_t reps) {
  psmr::smr::BitmapConfig bitmap;
  bitmap.bits = 1024000;
  const bool use_bitmap = mode == ConflictMode::kBitmap;

  DependencyGraph graph(mode, index);
  std::uint64_t seq = 0;
  for (std::size_t g = 0; g < pending; ++g) {
    graph.insert(make_batch(++seq, batch_size, (g + 1) * 10'000'000ull,
                            use_bitmap ? &bitmap : nullptr));
    benchmark::DoNotOptimize(graph.take_oldest_free());
  }

  using Clock = std::chrono::steady_clock;
  const auto ns_between = [](Clock::time_point a, Clock::time_point b) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  };
  std::uint64_t probe_base = 1ull << 40;
  std::uint64_t insert_ns = 0;
  std::uint64_t remove_ns = 0;
  auto cycle = [&](std::size_t n) {
    insert_ns = remove_ns = 0;
    for (std::size_t i = 0; i < n; ++i) {
      auto probe = graph.prepare(
          make_batch(++seq, batch_size, probe_base, use_bitmap ? &bitmap : nullptr));
      probe_base += batch_size;
      const auto t0 = Clock::now();
      graph.insert(std::move(probe));
      const auto t1 = Clock::now();
      DependencyGraph::Node* node = graph.take_oldest_free();
      if (node != nullptr) {
        graph.remove(node);
      } else {
        graph.remove_newest();
      }
      const auto t2 = Clock::now();
      insert_ns += ns_between(t0, t1);
      remove_ns += ns_between(t1, t2);
    }
  };

  cycle(iters / 10 + 1);  // warm-up: caches, pool, branch predictors
  const auto tests0 = graph.conflict_stats().tests;
  const auto cmps0 = graph.conflict_stats().comparisons;
  const auto skips0 = graph.index_stats().fast_path_skips;
  const auto probes0 = graph.index_stats().probes;
  struct Rep {
    double cycle, insert, remove;
  };
  std::vector<Rep> runs;
  for (std::size_t r = 0; r < reps; ++r) {
    cycle(iters);
    const double n = static_cast<double>(iters);
    runs.push_back({static_cast<double>(insert_ns + remove_ns) / n,
                    static_cast<double>(insert_ns) / n,
                    static_cast<double>(remove_ns) / n});
  }
  const double cycles = static_cast<double>(iters * reps);
  const auto tests = graph.conflict_stats().tests - tests0;
  const auto cmps = graph.conflict_stats().comparisons - cmps0;
  const auto skips = graph.index_stats().fast_path_skips - skips0;
  const auto probes = graph.index_stats().probes - probes0;
  std::sort(runs.begin(), runs.end(),
            [](const Rep& a, const Rep& b) { return a.cycle < b.cycle; });

  InsertMeasurement m;
  const Rep& median = runs[runs.size() / 2];
  m.cycle_ns_median = median.cycle;
  m.cycle_ns_min = runs.front().cycle;
  m.cycle_ns_max = runs.back().cycle;
  m.insert_ns = median.insert;
  m.remove_ns = median.remove;
  m.pair_tests_per_insert = static_cast<double>(tests) / cycles;
  m.comparisons_per_test =
      tests ? static_cast<double>(cmps) / static_cast<double>(tests) : 0.0;
  m.fast_path_skip_fraction =
      probes ? static_cast<double>(skips) / static_cast<double>(probes) : 0.0;
  m.index_active = graph.index_active();
  return m;
}

struct ThroughputMeasurement {
  double delivery_kcmds_per_sec = 0.0;
  double pair_tests_per_insert = 0.0;
  double avg_graph_size = 0.0;
  /// Post-drain snapshot of the scheduler's registry (`--metrics-json`).
  psmr::obs::Snapshot final_metrics;
};

/// Delivery throughput through the real threaded Scheduler in the regime
/// the graph index targets — low conflict, LARGE pending graph. The workers are
/// pinned on sentinel batches (executor spins on a flag) so the
/// conflict-free measurement batches accumulate in the graph while the
/// delivery thread is timed: past kIndexActivateAbove residents the graph's
/// index pays one aggregate probe per insert instead of O(resident) pair
/// tests. Batches are pre-built so no client-side digest cost pollutes the
/// timing.
ThroughputMeasurement measure_scheduler_throughput(ConflictMode mode, unsigned workers,
                                                   std::size_t batch_size,
                                                   std::size_t n_batches,
                                                   std::size_t bitmap_bits) {
  psmr::smr::BitmapConfig bitmap;
  bitmap.bits = bitmap_bits;
  const bool use_bitmap = mode == ConflictMode::kBitmap;

  std::vector<psmr::smr::BatchPtr> pinned;
  for (unsigned w = 0; w < workers; ++w) {
    pinned.push_back(make_batch(w + 1, batch_size, (w + 1) * 1'000'000'000ull,
                                use_bitmap ? &bitmap : nullptr));
  }
  std::vector<psmr::smr::BatchPtr> batches;
  batches.reserve(n_batches);
  for (std::size_t i = 0; i < n_batches; ++i) {
    batches.push_back(make_batch(workers + i + 1, batch_size,
                                 (i + 1) * 10'000'000ull,
                                 use_bitmap ? &bitmap : nullptr));
  }

  std::atomic<bool> release{false};
  psmr::core::Scheduler scheduler(
      psmr::core::SchedulerOptions{.workers = workers,
                                   .mode = mode,
                                   .max_pending_batches = 0,
                                   .metrics = nullptr},
      [&release, workers](const psmr::smr::Batch& b) {
        if (b.sequence() <= workers) {
          while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
        }
      });
  scheduler.start();
  for (auto& b : pinned) scheduler.deliver(std::move(b));
  // Let every worker take its sentinel before the timed window.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const auto tests0 = scheduler.stats().counter("scheduler.insert.pair_tests");
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& b : batches) scheduler.deliver(std::move(b));
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const psmr::obs::Snapshot st = scheduler.stats();

  release.store(true, std::memory_order_release);
  scheduler.wait_idle();
  scheduler.stop();

  ThroughputMeasurement m;
  m.delivery_kcmds_per_sec =
      static_cast<double>(n_batches * batch_size) / secs / 1000.0;
  m.pair_tests_per_insert =
      static_cast<double>(st.counter("scheduler.insert.pair_tests") - tests0) /
      static_cast<double>(n_batches);
  m.avg_graph_size = st.gauge("graph.size_at_insert.avg");
  // Post-drain snapshot: every batch has run, so the lifecycle counters and
  // the queue-wait histogram are complete.
  m.final_metrics = scheduler.stats();
  return m;
}

// ---------------------------------------------------------------------------
// Shared bench-file scaffolding for the --json and --checkpoint-interval
// entry points. Both open their file with the same resolved-configuration
// header — bench name, smoke flag, and a "config" object naming exactly
// what runs — so headers are printed by ONE function and cannot drift from
// the measurement loops. The psmr.metrics.v1 export is likewise written by
// one helper.
// ---------------------------------------------------------------------------

FILE* open_bench_file(const char* path, const char* bench, bool smoke,
                      const std::string& config_json) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return nullptr;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench);
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  if (!config_json.empty()) {
    std::fprintf(f, "  \"config\": %s,\n", config_json.c_str());
  }
  return f;
}

int write_metrics_export(const char* path, const psmr::obs::Snapshot& snap) {
  if (path == nullptr) return 0;
  FILE* mf = std::fopen(path, "w");
  if (mf == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  const std::string json = snap.to_json();
  std::fwrite(json.data(), 1, json.size(), mf);
  std::fputc('\n', mf);
  std::fclose(mf);
  std::printf("wrote %s\n", path);
  return 0;
}

struct CheckpointMeasurement {
  double delivery_kcmds_per_sec = 0.0;
  double avg_pause_us = 0.0;  // delivery-thread stall per checkpoint
  std::uint64_t checkpoints = 0;
  psmr::obs::Snapshot final_metrics;
};

/// Steady-state cost of the checkpoint cadence (DESIGN.md §12): delivers
/// `n_batches` through the real threaded Scheduler with a KvStore-applying
/// executor while a CheckpointManager arms the quiesce barrier every
/// `interval` sequences. The timed window is the whole delivery loop, so the
/// throughput row absorbs every barrier stall; the pause column isolates the
/// per-checkpoint cost (drain + capture + release, measured around the
/// barrier hooks on the delivery thread). interval=0 is the no-checkpoint
/// baseline. Keys mix a hot set with unique tails so the drained graph holds
/// real dependencies, not just queue depth.
CheckpointMeasurement measure_checkpoint_throughput(std::uint64_t interval,
                                                    unsigned workers,
                                                    std::size_t batch_size,
                                                    std::size_t n_batches) {
  auto registry = std::make_shared<psmr::obs::MetricsRegistry>();
  psmr::kv::KvStore store;
  psmr::core::Scheduler scheduler(
      psmr::core::SchedulerOptions{.workers = workers,
                                   .mode = ConflictMode::kKeysNested,
                                   .metrics = registry},
      [&store](const psmr::smr::Batch& b) {
        for (const psmr::smr::Command& c : b.commands()) store.update(c.key, c.value);
      });

  std::uint64_t pause_ns = 0;  // delivery thread only: no synchronization
  std::uint64_t pause_started = 0;
  psmr::smr::CheckpointManager::Options copts;
  copts.interval = interval;
  copts.metrics = registry;
  psmr::smr::CheckpointManager manager(
      copts,
      psmr::smr::CheckpointManager::Barrier{
          [&](std::uint64_t seq) {
            pause_started = static_cast<std::uint64_t>(
                std::chrono::steady_clock::now().time_since_epoch().count());
            scheduler.drain_to_sequence(seq);
          },
          [&] {
            scheduler.release_barrier();
            pause_ns += static_cast<std::uint64_t>(
                            std::chrono::steady_clock::now().time_since_epoch().count()) -
                        pause_started;
          }},
      [&store] { return store.serialize(); }, nullptr);

  std::vector<psmr::smr::BatchPtr> batches;
  batches.reserve(n_batches);
  for (std::size_t i = 0; i < n_batches; ++i) {
    std::vector<psmr::smr::Command> cmds;
    cmds.reserve(batch_size);
    for (std::size_t j = 0; j < batch_size; ++j) {
      psmr::smr::Command c;
      c.type = psmr::smr::OpType::kUpdate;
      // ~1/4 of the keys land in a 64-key hot set (real conflict edges for
      // the barrier to drain); the rest are unique.
      c.key = (i * batch_size + j) % 4 == 0
                  ? (i + j) % 64
                  : (1ull << 20) + i * batch_size + j;
      c.value = i;
      cmds.push_back(c);
    }
    auto b = std::make_shared<psmr::smr::Batch>(std::move(cmds));
    b->set_sequence(i + 1);
    batches.push_back(std::move(b));
  }

  scheduler.start();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n_batches; ++i) {
    scheduler.deliver(std::move(batches[i]));
    manager.on_delivered(i + 1);
  }
  scheduler.wait_idle();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  scheduler.stop();

  CheckpointMeasurement m;
  m.delivery_kcmds_per_sec =
      static_cast<double>(n_batches * batch_size) / secs / 1000.0;
  m.checkpoints = manager.checkpoints_taken();
  m.avg_pause_us = m.checkpoints != 0
                       ? static_cast<double>(pause_ns) /
                             static_cast<double>(m.checkpoints) / 1000.0
                       : 0.0;
  // Shared registry: scheduler.* AND checkpoint.* land in one snapshot (the
  // checkpoint-metrics fixture validated by tools/check_metrics_json.py).
  m.final_metrics = manager.stats();
  return m;
}

/// The `--checkpoint-interval` sweep rows: interval=0 baseline first, then
/// tightening cadences; each row carries its throughput ratio against the
/// baseline and the isolated per-checkpoint pause.
void write_checkpoint_rows(FILE* f, bool smoke, psmr::obs::Snapshot* last_metrics) {
  const std::size_t n = smoke ? 400 : 4000;
  const std::size_t batch_size = 16;
  const std::uint64_t intervals[] = {0, 200, 50, 10};
  double baseline = 0.0;
  bool first = true;
  for (const std::uint64_t interval : intervals) {
    const CheckpointMeasurement m =
        measure_checkpoint_throughput(interval, /*workers=*/4, batch_size, n);
    if (interval == 0) baseline = m.delivery_kcmds_per_sec;
    const double ratio =
        baseline > 0.0 ? m.delivery_kcmds_per_sec / baseline : 0.0;
    std::fprintf(f,
                 "%s    {\"mode\": \"keys-nested\", \"workers\": 4, "
                 "\"batch_size\": %zu, \"batches\": %zu, "
                 "\"checkpoint_interval\": %llu, \"checkpoints_taken\": %llu, "
                 "\"delivery_kcmds_per_sec\": %.1f, "
                 "\"throughput_vs_no_checkpoint\": %.3f, "
                 "\"avg_barrier_pause_us\": %.1f}",
                 first ? "" : ",\n", batch_size, n,
                 static_cast<unsigned long long>(interval),
                 static_cast<unsigned long long>(m.checkpoints),
                 m.delivery_kcmds_per_sec, ratio, m.avg_pause_us);
    first = false;
    std::printf("checkpoint   interval=%-4llu (%3llu taken): %10.1f kCmds/s "
                "delivery, %.3fx vs none, %8.1f us/pause\n",
                static_cast<unsigned long long>(interval),
                static_cast<unsigned long long>(m.checkpoints),
                m.delivery_kcmds_per_sec, ratio, m.avg_pause_us);
    if (interval != 0 && last_metrics != nullptr) *last_metrics = m.final_metrics;
  }
}

/// `--checkpoint-interval` mode: only the checkpoint-interval sweep, written
/// to BENCH_scheduler_checkpoints.json (+ the psmr.metrics.v1 export
/// carrying the `checkpoint.*` metrics for the schema fixture).
int checkpoints_main(bool smoke, const char* metrics_path) {
  FILE* f = open_bench_file("BENCH_scheduler_checkpoints.json",
                            "micro_scheduler_checkpoints", smoke,
                            "{\"workers\": 4, \"mode\": \"keys-nested\", "
                            "\"intervals\": [0, 200, 50, 10]}");
  if (f == nullptr) return 1;
  std::fprintf(f, "  \"host\": %s,\n", psmr::bench::host_json().c_str());
  std::fprintf(f, "  \"checkpoint_sweep\": [\n");
  psmr::obs::Snapshot last_metrics;
  write_checkpoint_rows(f, smoke, &last_metrics);
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_scheduler_checkpoints.json\n");
  return write_metrics_export(metrics_path, last_metrics);
}

int json_main(bool smoke, const char* metrics_path) {
  const std::size_t insert_iters = smoke ? 200 : 2000;
  const std::size_t insert_reps = smoke ? 1 : 5;
  const std::size_t tput_batches = smoke ? 300 : 2000;
  const std::size_t tput_reps = smoke ? 1 : 5;

  struct InsertCase {
    ConflictMode mode;
    std::size_t batch_size;
  };
  const InsertCase cases[] = {
      {ConflictMode::kKeysNested, 16},  // the zipf-rw-ckpt / paxos-relay e2e batch
      {ConflictMode::kKeysNested, 100},
      {ConflictMode::kBitmap, 200},
  };
  // Small sizes are the closed-loop e2e regime (graph.size_at_insert.avg
  // ~2); 64 is the large-graph regime the index targets. kAuto's
  // thresholds (DependencyGraph::kIndexActivateAbove) come from this sweep.
  const std::size_t pending_sizes[] = {1, 2, 4, 8, 16, 32, 64};

  FILE* f = open_bench_file("BENCH_scheduler.json", "micro_scheduler", smoke, "");
  if (f == nullptr) return 1;
  std::fprintf(f, "  \"host\": %s,\n", psmr::bench::host_json().c_str());
  std::fprintf(f, "  \"simd_backend\": \"%s\",\n", psmr::util::Bitmap::simd_backend());
  std::fprintf(f, "  \"graph_insert\": [\n");
  bool first = true;
  for (const InsertCase& c : cases) {
    for (std::size_t pending : pending_sizes) {
      for (IndexMode index : {IndexMode::kScan, IndexMode::kIndexed, IndexMode::kAuto}) {
        const InsertMeasurement m = measure_graph_insert(
            c.mode, index, c.batch_size, pending, insert_iters, insert_reps);
        std::fprintf(f,
                     "%s    {\"mode\": \"%s\", \"index\": \"%s\", \"batch_size\": %zu, "
                     "\"pending\": %zu, \"reps\": %zu, \"iters_per_rep\": %zu, "
                     "\"ns_per_cycle_median\": %.1f, \"ns_per_cycle_min\": %.1f, "
                     "\"ns_per_cycle_max\": %.1f, \"ns_insert\": %.1f, "
                     "\"ns_take_remove\": %.1f, \"index_active\": %s, "
                     "\"pair_tests_per_insert\": %.3f, \"comparisons_per_test\": %.1f, "
                     "\"fast_path_skip_fraction\": %.3f}",
                     first ? "" : ",\n", psmr::core::to_string(c.mode),
                     psmr::core::to_string(index), c.batch_size, pending, insert_reps,
                     insert_iters, m.cycle_ns_median, m.cycle_ns_min, m.cycle_ns_max,
                     m.insert_ns, m.remove_ns, m.index_active ? "true" : "false",
                     m.pair_tests_per_insert, m.comparisons_per_test,
                     m.fast_path_skip_fraction);
        first = false;
        std::printf("graph_cycle  %-13s index=%-7s pending=%-2zu: %9.1f ns/cycle "
                    "(insert %9.1f, take+remove %9.1f), %6.3f pair tests/insert\n",
                    psmr::core::to_string(c.mode), psmr::core::to_string(index),
                    pending, m.cycle_ns_median, m.insert_ns, m.remove_ns,
                    m.pair_tests_per_insert);
      }
    }
  }
  std::fprintf(f, "\n  ],\n  \"scheduler_throughput\": [\n");
  first = true;
  psmr::obs::Snapshot last_metrics;
  for (ConflictMode mode : {ConflictMode::kBitmap, ConflictMode::kKeysNested}) {
    const std::size_t batch_size = mode == ConflictMode::kBitmap ? 200 : 100;
    // The scan is quadratic in delivered batches; cap both runs (the dense
    // digest additionally keeps ~256 KiB of bloom per pre-built batch).
    const std::size_t n = tput_batches / 2;
    // The bitmap case uses the paper's LARGE digest (Table I): it is the
    // configuration whose per-pair dense scan is most expensive, and its
    // sparser aggregate keeps the posting lists selective.
    const std::size_t bits = 1024000;
    // The row reports its median rep (metrics too) with the spread.
    std::vector<ThroughputMeasurement> runs;
    for (std::size_t r = 0; r < tput_reps; ++r) {
      runs.push_back(
          measure_scheduler_throughput(mode, /*workers=*/4, batch_size, n, bits));
    }
    std::sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
      return a.delivery_kcmds_per_sec < b.delivery_kcmds_per_sec;
    });
    ThroughputMeasurement& m = runs[runs.size() / 2];
    std::fprintf(f,
                 "%s    {\"mode\": \"%s\", \"workers\": 4, "
                 "\"batch_size\": %zu, \"batches\": %zu, \"bitmap_bits\": %zu, "
                 "\"reps\": %zu, \"delivery_kcmds_per_sec\": %.1f, "
                 "\"delivery_kcmds_per_sec_min\": %.1f, "
                 "\"delivery_kcmds_per_sec_max\": %.1f, "
                 "\"pair_tests_per_insert\": %.3f, \"avg_graph_size\": %.1f}",
                 first ? "" : ",\n", psmr::core::to_string(mode), batch_size, n, bits,
                 tput_reps, m.delivery_kcmds_per_sec, runs.front().delivery_kcmds_per_sec,
                 runs.back().delivery_kcmds_per_sec, m.pair_tests_per_insert,
                 m.avg_graph_size);
    first = false;
    std::printf("delivery     %-13s: %10.1f kCmds/s (min %.1f, max %.1f), "
                "%7.3f pair tests/insert, avg graph %.1f\n",
                psmr::core::to_string(mode), m.delivery_kcmds_per_sec,
                runs.front().delivery_kcmds_per_sec, runs.back().delivery_kcmds_per_sec,
                m.pair_tests_per_insert, m.avg_graph_size);
    last_metrics = std::move(m.final_metrics);
  }
  std::fprintf(f, "\n  ],\n  \"checkpoint_sweep\": [\n");
  write_checkpoint_rows(f, smoke, nullptr);
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_scheduler.json\n");
  // Full `psmr.metrics.v1` snapshot of the last throughput run's scheduler
  // (post-drain). Validated by tools/check_metrics_json.py in the smoke
  // target.
  return write_metrics_export(metrics_path, last_metrics);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool checkpoints = false;
  bool smoke = false;
  const char* metrics_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--checkpoint-interval") == 0) checkpoints = true;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--metrics-json") == 0) metrics_path = "METRICS_scheduler.json";
    if (std::strncmp(argv[i], "--metrics-json=", 15) == 0) metrics_path = argv[i] + 15;
  }
  if (checkpoints) {
    return checkpoints_main(smoke,
                            metrics_path != nullptr ? metrics_path
                                                    : "METRICS_checkpoint.json");
  }
  if (json) return json_main(smoke, metrics_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
