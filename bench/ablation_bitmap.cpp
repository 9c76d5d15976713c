// Ablation study of the bitmap conflict-detection design choices the paper
// fixes by fiat (§V, §VI-B), quantifying each tradeoff:
//
//   A. Bitmap size m: small m = false-positive serialization (overhead vs
//      concurrency tradeoff part 2); large m = longer dense scans.
//      Throughput via the measured-cost execution simulator + the analytic
//      false-positive rate.
//   B. Number of hash functions k: the paper restricts k = 1 because
//      intersection-based detection only degrades with more hashes —
//      measured as pairwise conflict rate at k = 1, 2, 4.
//   C. Full pairwise scan (the paper's dgInsertBatch) vs the inverted-index
//      insert path (our extension): same dependency graph, fewer batch-pair
//      tests per insert.
//
// Env: PSMR_CMDS as in fig4. `--json` additionally writes the part A and
// part C data, with the host they ran on, to BENCH_ablation_bitmap.json.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "host.hpp"
#include "sim/analytic.hpp"
#include "sim/conflict_sim.hpp"
#include "sim/exec_sim.hpp"
#include "stats/table.hpp"

using psmr::stats::Table;

namespace {

void part_a_bitmap_size(std::uint64_t commands, FILE* json) {
  std::printf("A. Bitmap size sweep (batch size 200, 8 virtual workers)\n\n");
  Table table({"Bitmap bits", "Throughput (kCmds/s)", "Analytic FP rate (G=7)",
               "Detected-conflict fraction", "Avg graph size"});
  bool first = true;
  for (std::size_t bits : {1024u, 10240u, 102400u, 1024000u, 4096000u}) {
    psmr::sim::ExecSimConfig cfg;
    cfg.workers = 8;
    cfg.mode = psmr::core::ConflictMode::kBitmap;
    cfg.batch_size = 200;
    cfg.use_bitmap = true;
    cfg.bitmap_bits = bits;
    cfg.proxies = 8;
    cfg.commands_target = commands;
    const auto r = psmr::sim::run_exec_sim(cfg);
    table.add_row({Table::fmt_int(bits), Table::fmt(r.kcmds_per_sec, 1),
                   Table::fmt(psmr::sim::conflict_rate(bits, 200, 7) * 100, 2) + "%",
                   Table::fmt(r.detected_conflict_fraction() * 100, 1) + "%",
                   Table::fmt(r.avg_graph_size, 2)});
    if (json != nullptr) {
      std::fprintf(json,
                   "%s    {\"bits\": %zu, \"kcmds_per_sec\": %.1f, "
                   "\"analytic_fp_rate\": %.4f, \"detected_conflict_fraction\": %.4f, "
                   "\"avg_graph_size\": %.2f}",
                   first ? "" : ",\n", bits, r.kcmds_per_sec,
                   psmr::sim::conflict_rate(bits, 200, 7),
                   r.detected_conflict_fraction(), r.avg_graph_size);
      first = false;
    }
  }
  table.print();
  std::printf("\n");
}

void part_b_hash_count() {
  std::printf("B. Hash-function count k (102400-bit bitmaps, 100-key batches,\n"
              "   pairwise conflict rate between independent batches)\n\n");
  Table table({"k (hash functions)", "Simulated pairwise FP rate"});
  for (unsigned k : {1u, 2u, 4u}) {
    psmr::sim::ConflictSimConfig cfg;
    cfg.bitmap_bits = 102400;
    cfg.batch_size = 100;
    cfg.graph_size = 1;
    cfg.iterations = 50'000;
    cfg.hashes = k;
    const auto r = psmr::sim::run_conflict_sim(cfg);
    table.add_row({Table::fmt_int(k), Table::fmt(r.pairwise_rate() * 100, 2) + "%"});
  }
  table.print();
  std::printf("   (k = 1 is optimal for intersection-based detection — §VI-B)\n\n");
}

void part_c_scan_vs_index(std::uint64_t commands, FILE* json) {
  std::printf("C. Full pairwise scan (paper) vs inverted-index insert (ours)\n\n");
  Table table({"Insert path", "Throughput (kCmds/s)", "Pair tests / batch",
               "Monitor utilization", "Avg graph size"});
  bool first = true;
  for (auto index : {psmr::core::IndexMode::kScan, psmr::core::IndexMode::kIndexed}) {
    psmr::sim::ExecSimConfig cfg;
    cfg.workers = 16;
    cfg.mode = psmr::core::ConflictMode::kBitmap;
    cfg.index = index;
    cfg.batch_size = 200;
    cfg.use_bitmap = true;
    cfg.bitmap_bits = 1024000;
    cfg.proxies = 16;
    cfg.commands_target = commands;
    cfg.bitmap_word_cost_ns = 0;  // compare raw measured implementations
    const auto r = psmr::sim::run_exec_sim(cfg);
    const double tests_per_batch =
        r.batches ? static_cast<double>(r.conflict_tests) / static_cast<double>(r.batches)
                  : 0.0;
    table.add_row({psmr::core::to_string(index), Table::fmt(r.kcmds_per_sec, 1),
                   Table::fmt(tests_per_batch, 2),
                   Table::fmt(r.monitor_utilization * 100, 0) + "%",
                   Table::fmt(r.avg_graph_size, 2)});
    if (json != nullptr) {
      std::fprintf(json,
                   "%s    {\"index\": \"%s\", \"kcmds_per_sec\": %.1f, "
                   "\"pair_tests_per_batch\": %.3f, \"monitor_utilization\": %.3f, "
                   "\"avg_graph_size\": %.2f}",
                   first ? "" : ",\n", psmr::core::to_string(index), r.kcmds_per_sec,
                   tests_per_batch, r.monitor_utilization, r.avg_graph_size);
      first = false;
    }
  }
  table.print();
  std::printf("   (identical dependency graphs — the index only changes how insert\n"
              "    FINDS the batches to test, see tests/core/graph_index_property)\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool want_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) want_json = true;
  }
  std::uint64_t commands = 100'000;
  if (const char* s = std::getenv("PSMR_CMDS")) commands = std::strtoull(s, nullptr, 10);
  FILE* json = nullptr;
  if (want_json) {
    json = std::fopen("BENCH_ablation_bitmap.json", "w");
    if (json == nullptr) {
      std::fprintf(stderr, "cannot open BENCH_ablation_bitmap.json for writing\n");
      return 1;
    }
    std::fprintf(json, "{\n  \"bench\": \"ablation_bitmap\",\n");
    std::fprintf(json, "  \"host\": %s,\n", psmr::bench::host_json().c_str());
    std::fprintf(json, "  \"bitmap_size_sweep\": [\n");
  }
  std::printf("Bitmap design ablations\n=======================\n\n");
  part_a_bitmap_size(commands, json);
  part_b_hash_count();
  if (json != nullptr) std::fprintf(json, "\n  ],\n  \"scan_vs_index\": [\n");
  part_c_scan_vs_index(commands, json);
  if (json != nullptr) {
    std::fprintf(json, "\n  ]\n}\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_ablation_bitmap.json\n");
  }
  return 0;
}
