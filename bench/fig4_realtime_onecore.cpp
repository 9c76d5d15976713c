// Figure 4 companion: the same five configurations measured with REAL
// threads on the host it runs on. Past the host's core count the thread
// axis cannot show speedup (see DESIGN.md substitution table) — the
// per-configuration ORDERING is still meaningful; fig4_thread_scalability
// reproduces the full figure with the measured-cost execution simulator.
//
// Five configurations, exactly the paper's:
//   CBASE, batch size=1                  (per-command graph, key conflicts)
//   CBASE, batch size=100                (batched, key-by-key conflicts)
//   CBASE, batch size=200                (batched, key-by-key conflicts)
//   CBASE, batch size=100, using bitmap  (batched, bitmap conflicts)
//   CBASE, batch size=200, using bitmap  (batched, bitmap conflicts)
// each at 1, 2, 4, 8 and 16 worker threads, contention-free (disjoint-key)
// workload, light commands.
//
// Expected shape (paper): bs=1 flat regardless of threads (the scheduler is
// the bottleneck); bs=100 keys ≈ 1.6x bs=1; bs=200 keys WORSE than bs=100
// keys (quadratic comparisons); bitmap configs an order of magnitude above,
// scaling with threads, bs=200+bitmap highest. Absolute numbers differ from
// the paper's cluster; the per-configuration ratios and the observed
// average graph sizes (which feed Table I) are printed for comparison.
//
// Env: PSMR_SECONDS=<s> per cell (default 0.6), PSMR_FULL=1 for 4x longer,
// PSMR_PROXIES=<n> offered-load control (default 16),
// PSMR_BCAST_NS=<ns> simulated per-broadcast transport cost (default 2000 —
// models the per-delivery syscall/network cost the paper's Ring Paxos paid;
// set 0 for pure in-process ordering).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.hpp"
#include "stats/table.hpp"

int main() {
  using psmr::bench::HarnessConfig;
  using psmr::bench::HarnessResult;
  using psmr::core::ConflictMode;
  using psmr::stats::Table;

  const double seconds = psmr::bench::bench_seconds(0.6);
  const unsigned proxies =
      std::getenv("PSMR_PROXIES") ? std::atoi(std::getenv("PSMR_PROXIES")) : 16;
  const std::uint32_t bcast_ns =
      std::getenv("PSMR_BCAST_NS") ? std::atoi(std::getenv("PSMR_BCAST_NS")) : 2000;

  struct Config {
    const char* label;
    std::size_t batch_size;
    bool bitmap;
  };
  const Config configs[] = {
      {"CBASE, batch size=1", 1, false},
      {"CBASE, batch size=100", 100, false},
      {"CBASE, batch size=200", 200, false},
      {"CBASE, batch size=100, using bitmap", 100, true},
      {"CBASE, batch size=200, using bitmap", 200, true},
  };
  const unsigned thread_counts[] = {1, 2, 4, 8, 16};

  std::printf("Figure 4 — thread scalability, contention-free workload\n");
  std::printf("(window %.2fs/cell, %u proxies, broadcast overhead %u ns)\n\n", seconds,
              proxies, bcast_ns);

  Table table({"Configuration", "Threads", "Throughput (kCmds/s)", "Avg graph size",
               "p50 batch lat (us)"});
  double cbase_1thread = 0.0;
  std::vector<std::pair<std::string, double>> best_per_config;

  for (const Config& c : configs) {
    double best = 0.0;
    for (unsigned threads : thread_counts) {
      HarnessConfig cfg;
      cfg.workers = threads;
      cfg.mode = c.bitmap ? ConflictMode::kBitmap : ConflictMode::kKeysNested;
      cfg.batch_size = c.batch_size;
      cfg.use_bitmap = c.bitmap;
      cfg.bitmap_bits = 1024000;
      cfg.proxies = proxies;
      cfg.broadcast_overhead_ns = bcast_ns;
      cfg.seconds = seconds;
      const HarnessResult r = psmr::bench::run_throughput(cfg);
      table.add_row({c.label, Table::fmt_int(threads), Table::fmt(r.kcmds_per_sec, 1),
                     Table::fmt(r.avg_graph_size, 2),
                     Table::fmt(r.p50_batch_latency_us, 1)});
      best = std::max(best, r.kcmds_per_sec);
      if (c.batch_size == 1 && threads == 1) cbase_1thread = r.kcmds_per_sec;
    }
    best_per_config.emplace_back(c.label, best);
  }

  table.print();

  std::printf("\nSpeed-up over traditional CBASE (paper: 1.6x, 0.84x, 15.4x, 25.9x):\n");
  const double cbase_best =
      best_per_config.empty() ? cbase_1thread : best_per_config.front().second;
  for (const auto& [label, best] : best_per_config) {
    std::printf("  %-40s best %10.1f kCmds/s  (%.2fx CBASE)\n", label.c_str(), best,
                cbase_best > 0 ? best / cbase_best : 0.0);
  }
  std::printf("\nCSV:\n");
  table.print_csv();
  return 0;
}
