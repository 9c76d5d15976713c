#include "sim/exec_sim.hpp"

#include <gtest/gtest.h>

namespace psmr::sim {
namespace {

ExecSimConfig base(std::size_t batch, core::ConflictMode mode, unsigned workers) {
  ExecSimConfig cfg;
  cfg.batch_size = batch;
  cfg.mode = mode;
  cfg.use_bitmap = mode == core::ConflictMode::kBitmap;
  cfg.workers = workers;
  cfg.proxies = 8;
  cfg.commands_target = 20'000;
  return cfg;
}

TEST(ExecSim, CompletesTargetCommands) {
  const auto r = run_exec_sim(base(100, core::ConflictMode::kBitmap, 4));
  EXPECT_GE(r.commands + 2'000 /*warmup*/, 20'000u);
  EXPECT_GT(r.kcmds_per_sec, 0.0);
  EXPECT_GT(r.batches, 0u);
  EXPECT_GT(r.virtual_seconds, 0.0);
}

TEST(ExecSim, GraphBoundedByProxies) {
  const auto r = run_exec_sim(base(100, core::ConflictMode::kBitmap, 4));
  EXPECT_LE(r.avg_graph_size, 8.0);
  EXPECT_GT(r.avg_graph_size, 0.5);
}

TEST(ExecSim, BitmapBeatsKeysAtBatch100) {
  // The paper's headline: bitmap conflict detection removes the scheduler
  // bottleneck. Robust across hosts because the key-mode monitor charge is
  // dominated by the calibrated per-comparison cost.
  const auto keys = run_exec_sim(base(100, core::ConflictMode::kKeysNested, 8));
  const auto bitmap = run_exec_sim(base(100, core::ConflictMode::kBitmap, 8));
  EXPECT_GT(bitmap.kcmds_per_sec, keys.kcmds_per_sec * 3);
}

TEST(ExecSim, Batch200KeysSlowerThanBatch100Keys) {
  // Quadratic key comparisons: doubling the batch quadruples pair cost.
  const auto b100 = run_exec_sim(base(100, core::ConflictMode::kKeysNested, 8));
  const auto b200 = run_exec_sim(base(200, core::ConflictMode::kKeysNested, 8));
  EXPECT_LT(b200.kcmds_per_sec, b100.kcmds_per_sec);
}

TEST(ExecSim, BitmapScalesWithWorkers) {
  const auto w1 = run_exec_sim(base(200, core::ConflictMode::kBitmap, 1));
  const auto w4 = run_exec_sim(base(200, core::ConflictMode::kBitmap, 4));
  EXPECT_GT(w4.kcmds_per_sec, w1.kcmds_per_sec * 2);
}

TEST(ExecSim, ConflictsReduceThroughput) {
  auto free_cfg = base(200, core::ConflictMode::kBitmap, 16);
  auto conflicted = free_cfg;
  conflicted.conflict_rate = 0.3;
  const auto a = run_exec_sim(free_cfg);
  const auto b = run_exec_sim(conflicted);
  EXPECT_LT(b.kcmds_per_sec, a.kcmds_per_sec * 1.02);  // no speedup from conflicts
  EXPECT_GT(b.detected_conflict_fraction(), a.detected_conflict_fraction());
}

TEST(ExecSim, MonitorUtilizationReflectsBottleneck) {
  // Key-mode at large batches is scheduler-bound: monitor nearly saturated.
  const auto keys = run_exec_sim(base(200, core::ConflictMode::kKeysNested, 8));
  EXPECT_GT(keys.monitor_utilization, 0.8);
}

TEST(ExecSim, DeliveryCostCapsSmallBatches) {
  // bs=1 is delivery-bound: throughput ~ 1/delivery_ns regardless of
  // workers (the flat CBASE bars of Fig. 4).
  auto cfg = base(1, core::ConflictMode::kKeysNested, 16);
  cfg.commands_target = 5'000;
  const auto r = run_exec_sim(cfg);
  const double cap_kcmds = 1e9 / static_cast<double>(cfg.delivery_ns) / 1000.0;
  EXPECT_LT(r.kcmds_per_sec, cap_kcmds * 1.15);
  EXPECT_GT(r.kcmds_per_sec, cap_kcmds * 0.5);
}

TEST(ExecSim, ZipfSkewIncreasesConflictsAndLowersThroughput) {
  auto uniform = base(100, core::ConflictMode::kBitmap, 8);
  auto skewed = uniform;
  skewed.zipf_theta = 0.99;
  skewed.key_space = 100'000;
  const auto u = run_exec_sim(uniform);
  const auto z = run_exec_sim(skewed);
  EXPECT_GT(z.detected_conflict_fraction(), u.detected_conflict_fraction());
  EXPECT_LT(z.kcmds_per_sec, u.kcmds_per_sec);
}

TEST(ExecSim, PureCppRegimeIsFasterThanCalibrated) {
  auto calibrated = base(100, core::ConflictMode::kBitmap, 8);
  auto pure = calibrated;
  pure.cmd_exec_ns = 150;
  pure.delivery_ns = 2'000;
  pure.broadcast_ns = 2'000;
  pure.bitmap_word_cost_ns = 0;
  EXPECT_GT(run_exec_sim(pure).kcmds_per_sec, run_exec_sim(calibrated).kcmds_per_sec);
}

}  // namespace
}  // namespace psmr::sim
