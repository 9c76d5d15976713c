// Reproduces Figure 5: impact of conflicts on overall throughput
// (paper §VII-E).
//
// Configurations: {batch size 100, 200} x bitmap conflict detection x
// workload conflict rates {0%, 10%, 20%} x {1, 2, 4, 8, 16} worker threads.
// The 10%/20% rates mirror the false-positive regimes of Table I at a
// 1 Mbit bitmap (paper: "we choose 10% and 20% of conflicts because these
// rates are similar to those experienced when bitmap size is 1 Mbit").
//
// Expected shape (paper): throughput decreases as the conflict rate grows;
// with few workers there is enough independent work to keep threads busy;
// at high thread counts and 20% conflicts throughput declines slightly from
// its peak (synchronization outweighs available parallelism); even so, the
// bitmap scheduler stays ~15x above traditional CBASE (paper: ~515
// kCmds/s for bs=200 at 20%).
//
// Same virtual-worker methodology as fig4_thread_scalability: the
// simulator models worker counts beyond the host's cores (see DESIGN.md).
// Env: PSMR_CMDS, PSMR_FULL, PSMR_PROXIES as in fig4.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "sim/exec_sim.hpp"
#include "stats/table.hpp"

int main() {
  using psmr::core::ConflictMode;
  using psmr::sim::ExecSimConfig;
  using psmr::sim::ExecSimResult;
  using psmr::stats::Table;

  std::uint64_t commands = 150'000;
  if (const char* s = std::getenv("PSMR_CMDS")) commands = std::strtoull(s, nullptr, 10);
  else if (std::getenv("PSMR_FULL")) commands = 600'000;
  const unsigned proxies =
      std::getenv("PSMR_PROXIES") ? std::atoi(std::getenv("PSMR_PROXIES")) : 8;

  const std::size_t batch_sizes[] = {100, 200};
  const double conflict_rates[] = {0.0, 0.10, 0.20};
  const unsigned thread_counts[] = {1, 2, 4, 8, 16};

  std::printf("Figure 5 — impact of conflicts on overall throughput\n");
  std::printf("(bitmap conflict detection, 1 Mbit bitmaps; %llu commands/cell, %u proxies)\n\n",
              static_cast<unsigned long long>(commands), proxies);

  Table table({"Configuration", "Threads", "Throughput (kCmds/s)", "Avg graph size",
               "Detected-conflict fraction"});

  for (std::size_t batch : batch_sizes) {
    for (double rate : conflict_rates) {
      const std::string label = "CBASE, batch size=" + std::to_string(batch) +
                                ", using bitmap, " +
                                std::to_string(static_cast<int>(rate * 100)) + "% conflicts";
      for (unsigned threads : thread_counts) {
        ExecSimConfig cfg;
        cfg.workers = threads;
        cfg.mode = ConflictMode::kBitmap;
        cfg.batch_size = batch;
        cfg.use_bitmap = true;
        cfg.bitmap_bits = 1024000;
        cfg.conflict_rate = rate;
        cfg.proxies = proxies;
        cfg.commands_target = commands;
        const ExecSimResult r = psmr::sim::run_exec_sim(cfg);
        table.add_row({label, Table::fmt_int(threads), Table::fmt(r.kcmds_per_sec, 1),
                       Table::fmt(r.avg_graph_size, 2),
                       Table::fmt(r.detected_conflict_fraction() * 100, 1) + "%"});
      }
    }
  }

  table.print();
  std::printf(
      "\nPaper reference points: bs=200+bitmap at 20%% conflicts ≈ 515 kCmds/s "
      "(≈15x traditional CBASE); throughput decreases with conflict rate and dips\n"
      "slightly at high thread counts under 20%% conflicts.\n");
  std::printf("\nCSV:\n");
  table.print_csv();
  return 0;
}
