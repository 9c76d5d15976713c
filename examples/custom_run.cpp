// Command-line driver for custom scheduler experiments — the tool a user
// reaches for after the canned figure benches: pick a conflict-detection
// mode, worker count, batch/bitmap sizes and a workload, run it either on
// real threads (wall clock) or on virtual workers (measured-cost
// simulation, see DESIGN.md), and read one result row.
//
//   ./build/examples/custom_run --mode bitmap --workers 8 --batch 200
//       --bitmap-bits 1024000 --conflict 0.1 --proxies 8 --virtual
//
// Flags (defaults in brackets):
//   --mode keys|bitmap     conflict detection       [bitmap]
//   --workers N        worker threads               [4]
//   --batch N          commands per batch           [100]
//   --bitmap-bits N    Bloom filter size m          [1024000]
//   --conflict R       batch conflict rate 0..1     [0]
//   --cost-ns N        synthetic per-command cost   [0]
//   --proxies N        closed-loop client proxies   [8]
//   --virtual          use the execution simulator  [off => wall clock]
//   --cmds N           commands to simulate         [150000]   (virtual)
//   --seconds S        measurement window           [1.0]      (wall clock)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"
#include "sim/exec_sim.hpp"

namespace {

[[noreturn]] void usage_error(const char* msg) {
  std::fprintf(stderr, "custom_run: %s (see header comment for flags)\n", msg);
  std::exit(2);
}

psmr::core::ConflictMode parse_mode(const std::string& s) {
  if (s == "keys") return psmr::core::ConflictMode::kKeysNested;
  if (s == "bitmap") return psmr::core::ConflictMode::kBitmap;
  usage_error("unknown --mode");
}

}  // namespace

int main(int argc, char** argv) {
  psmr::core::ConflictMode mode = psmr::core::ConflictMode::kBitmap;
  unsigned workers = 4, proxies = 8;
  std::size_t batch = 100, bitmap_bits = 1024000;
  bool use_virtual = false;
  double conflict = 0.0, seconds = 1.0;
  std::uint64_t cmds = 150'000;
  std::uint32_t cost_ns = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--mode") mode = parse_mode(next());
    else if (arg == "--workers") workers = std::atoi(next());
    else if (arg == "--batch") batch = std::strtoull(next(), nullptr, 10);
    else if (arg == "--bitmap-bits") bitmap_bits = std::strtoull(next(), nullptr, 10);
    else if (arg == "--conflict") conflict = std::atof(next());
    else if (arg == "--cost-ns") cost_ns = std::atoi(next());
    else if (arg == "--proxies") proxies = std::atoi(next());
    else if (arg == "--virtual") use_virtual = true;
    else if (arg == "--cmds") cmds = std::strtoull(next(), nullptr, 10);
    else if (arg == "--seconds") seconds = std::atof(next());
    else usage_error(("unknown flag " + arg).c_str());
  }
  const bool use_bitmap = mode == psmr::core::ConflictMode::kBitmap;

  std::printf("config: mode=%s workers=%u batch=%zu bitmap=%zu conflict=%.2f "
              "proxies=%u engine=%s\n\n",
              psmr::core::to_string(mode), workers, batch, use_bitmap ? bitmap_bits : 0,
              conflict, proxies, use_virtual ? "virtual" : "wall-clock");

  if (use_virtual) {
    psmr::sim::ExecSimConfig cfg;
    cfg.mode = mode;
    cfg.workers = workers;
    cfg.batch_size = batch;
    cfg.use_bitmap = use_bitmap;
    cfg.bitmap_bits = bitmap_bits;
    cfg.conflict_rate = conflict;
    cfg.proxies = proxies;
    cfg.commands_target = cmds;
    const auto r = psmr::sim::run_exec_sim(cfg);
    std::printf("throughput        : %10.1f kCmds/s (virtual time)\n", r.kcmds_per_sec);
    std::printf("avg graph size    : %10.2f\n", r.avg_graph_size);
    std::printf("monitor util      : %9.0f%%\n", r.monitor_utilization * 100);
    std::printf("worker util       : %9.0f%%\n", r.worker_utilization * 100);
    std::printf("conflict fraction : %9.1f%% of batch-pair tests\n",
                r.detected_conflict_fraction() * 100);
  } else {
    psmr::bench::HarnessConfig cfg;
    cfg.mode = mode;
    cfg.workers = workers;
    cfg.batch_size = batch;
    cfg.use_bitmap = use_bitmap;
    cfg.bitmap_bits = bitmap_bits;
    cfg.conflict_rate = conflict;
    cfg.cost_ns = cost_ns;
    cfg.proxies = proxies;
    cfg.seconds = seconds;
    const auto r = psmr::bench::run_throughput(cfg);
    std::printf("throughput        : %10.1f kCmds/s (wall clock, %u-way timeshared)\n",
                r.kcmds_per_sec, workers);
    std::printf("avg graph size    : %10.2f\n", r.avg_graph_size);
    std::printf("batch latency p50 : %10.1f us\n", r.p50_batch_latency_us);
    std::printf("batch latency p99 : %10.1f us\n", r.p99_batch_latency_us);
    std::printf("conflict fraction : %9.1f%% of batch-pair tests\n",
                r.detected_conflict_fraction() * 100);
  }
  return 0;
}
