// Measured-cost discrete-event simulator of a parallel SMR replica.
//
// Purpose: reproduce the thread-scalability experiments (Figs. 4 and 5) on
// a host with fewer cores than the paper's 64-core replicas. The simulator
// does NOT model the scheduler — it RUNS it: real batches flow through the
// real DependencyGraph with the real conflict detector, and every monitor
// operation (dgInsertBatch / dgGetBatch / dgRemoveBatch) is timed with the
// monotonic clock as it executes. Those measured durations occupy a single
// serial "monitor" resource on a virtual timeline, exactly as the mutex
// serializes them in the threaded implementation. Worker execution of a
// batch (service time = batch size x per-command cost, plus the measured
// remove) runs on one of N *virtual* workers in parallel virtual time.
//
// The client side is the paper's closed loop: P proxies each keep exactly
// one batch outstanding and submit the next one `broadcast_ns` after the
// previous completes (transport + proxy turnaround). Delivery additionally
// pays `delivery_ns` of serial pre-insert work per batch, modelling the
// per-delivery syscall/deserialization cost of the transport — the cost
// whose amortization is one of batching's two benefits (§V).
//
// Output: steady-state virtual-time throughput, observed average graph
// size, and monitor utilization (how scheduler-bound the configuration is).
#pragma once

#include <cstdint>

#include "core/dependency_graph.hpp"

namespace psmr::sim {

struct ExecSimConfig {
  /// Virtual worker threads N.
  unsigned workers = 1;
  core::ConflictMode mode = core::ConflictMode::kKeysNested;
  /// Insert-time candidate lookup strategy of the real graph under test.
  /// Defaults to the paper's full scan — the simulator reproduces the
  /// paper's figures, whose monitor cost IS the scan cost. The index
  /// ablations opt in explicitly.
  core::IndexMode index = core::IndexMode::kScan;
  std::size_t batch_size = 1;
  bool use_bitmap = false;
  std::size_t bitmap_bits = 1024000;

  /// Closed-loop client proxies (each with one outstanding batch).
  unsigned proxies = 16;
  /// Probability that a batch conflicts with a recently-submitted one
  /// (Fig. 5's knob). Implemented by reusing a key from a recent batch.
  double conflict_rate = 0.0;
  /// Key skew (extension beyond the paper's uniform/contention-free
  /// workloads): theta > 0 draws keys Zipf-distributed from `key_space`
  /// instead of the disjoint contention-free ranges, producing REAL
  /// conflicts on the hot keys.
  double zipf_theta = 0.0;
  std::uint64_t key_space = 1'000'000'000;

  /// Virtual per-command service time at a worker (ns). Calibrated to the
  /// paper's prototype: at its peak (854 kCmds/s over 16 threads, batch
  /// size 200) each thread sustains ~53 kCmds/s, i.e. ~9 us per command
  /// (Java KV update + per-command response marshalling/socket write). Our
  /// bare C++ sharded-map update is ~150 ns — pass that to see the
  /// pure-C++ regime.
  std::uint64_t cmd_exec_ns = 9'000;
  /// Virtual transport round-trip between response and next submission of
  /// a proxy (ns).
  std::uint64_t broadcast_ns = 30'000;
  /// Serial per-batch delivery cost at the replica before insert (ns):
  /// syscall + handoff + deserialization of the transport. Default 30 us,
  /// calibrated so "CBASE, batch size=1" lands near the paper's 33
  /// kCmds/s — i.e. the per-delivery cost their URingPaxos stack paid.
  std::uint64_t delivery_ns = 30'000;
  /// Extra monitor time charged PER KEY COMPARISON in the key-based
  /// conflict modes (ns). Our C++ nested loop compares two integer keys in
  /// ~1 ns; the paper's Java prototype paid tens of ns per comparison
  /// (object dereferences, string keys). Without this calibration the key
  /// modes would look unrealistically cheap relative to the bitmap scan
  /// and the paper's bs=200 < bs=1 crossover could not appear. Measured
  /// monitor time is still charged on top. 0 disables.
  std::uint64_t key_compare_cost_ns = 40;
  /// Same idea for the dense bitmap scan (kBitmap): extra charge per WORD
  /// compared, modelling the paper's Java long[]-loop cost on top of our
  /// measured C++ scan. 0 disables.
  std::uint64_t bitmap_word_cost_ns = 1;

  /// Stop after this many commands have completed (measurement length).
  std::uint64_t commands_target = 200'000;
  std::uint64_t seed = 42;
  /// Fraction of the run treated as warm-up and excluded from the rate.
  double warmup_fraction = 0.1;
};

struct ExecSimResult {
  double kcmds_per_sec = 0.0;      // virtual-time throughput
  double avg_graph_size = 0.0;     // at insert, as the paper reports
  double monitor_utilization = 0.0;  // busy fraction of the monitor resource
  double worker_utilization = 0.0;   // mean busy fraction across virtual workers
  std::uint64_t commands = 0;
  std::uint64_t batches = 0;
  std::uint64_t conflicts_found = 0;
  std::uint64_t conflict_tests = 0;
  double virtual_seconds = 0.0;

  double detected_conflict_fraction() const {
    return conflict_tests
               ? static_cast<double>(conflicts_found) / static_cast<double>(conflict_tests)
               : 0.0;
  }
};

ExecSimResult run_exec_sim(const ExecSimConfig& cfg);

}  // namespace psmr::sim
