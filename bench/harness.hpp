// Shared throughput harness for the figure benches.
//
// Builds the full replica pipeline of the paper's evaluation: N closed-loop
// client proxies -> total order (LocalBroadcast behind the ConsensusAdapter;
// optionally padded with a per-broadcast cost to model the transport) -> one
// replica running the scheduler under test -> in-memory KV store ->
// responses back to proxies.
// Runs for a fixed wall-clock window and reports commands/s plus scheduler
// statistics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "consensus/group.hpp"
#include "core/scheduler.hpp"
#include "kvstore/kvstore.hpp"
#include "obs/metrics.hpp"
#include "smr/consensus_adapter.hpp"
#include "smr/proxy.hpp"
#include "smr/replica.hpp"
#include "util/spin.hpp"
#include "workload/generator.hpp"

namespace psmr::bench {

struct HarnessConfig {
  // Scheduler under test.
  unsigned workers = 1;
  core::ConflictMode mode = core::ConflictMode::kKeysNested;
  // Workload shape.
  std::size_t batch_size = 1;
  bool use_bitmap = false;
  std::size_t bitmap_bits = 1024000;
  double conflict_rate = 0.0;
  std::uint32_t cost_ns = 0;
  // Offered load.
  unsigned proxies = 16;
  std::size_t clients_per_proxy = 16;
  // Simulated per-broadcast transport cost (models the syscalls/network the
  // paper's URingPaxos paid per delivery; 0 = pure in-process ordering).
  std::uint32_t broadcast_overhead_ns = 0;
  // Measurement window.
  double seconds = 1.0;
  std::uint64_t seed = 42;
};

struct HarnessResult {
  double kcmds_per_sec = 0.0;
  double avg_graph_size = 0.0;
  double max_graph_size = 0.0;
  std::uint64_t commands = 0;
  std::uint64_t batches = 0;
  std::uint64_t conflicts_found = 0;
  std::uint64_t conflict_tests = 0;
  std::uint64_t comparisons = 0;
  double p50_batch_latency_us = 0.0;
  double p99_batch_latency_us = 0.0;
  /// Full metrics export: the replica+scheduler snapshot with every proxy's
  /// `proxy.N.*` snapshot merged in (psmr.metrics.v1 schema).
  obs::Snapshot metrics;

  double detected_conflict_fraction() const {
    return conflict_tests ? static_cast<double>(conflicts_found) /
                                static_cast<double>(conflict_tests)
                          : 0.0;
  }
};

inline HarnessResult run_throughput(const HarnessConfig& cfg) {
  smr::BitmapConfig bitmap;
  bitmap.bits = cfg.bitmap_bits;

  consensus::LocalBroadcast broadcast;
  smr::ConsensusAdapter order(broadcast, bitmap);
  kv::KvStore store(1024);
  kv::KvService service(store);

  smr::Replica::Config rcfg;
  rcfg.scheduler.workers = cfg.workers;
  rcfg.scheduler.mode = cfg.mode;

  std::vector<std::unique_ptr<smr::Proxy>> proxies;
  auto sink = [&proxies](const smr::Response& r) {
    // client_id encodes the proxy: proxy_id * clients_per_proxy + local.
    // Proxies ignore responses that are not theirs, but direct routing is
    // cheap and avoids a broadcast storm.
    const std::size_t idx = static_cast<std::size_t>(r.client_id) / 1024;
    proxies[idx]->on_response(r);
  };

  smr::Replica replica(rcfg, service, sink);
  order.subscribe_replica([&](smr::BatchPtr b) { replica.deliver(b); });
  replica.start();

  // Keep only the in-flight window of keys so injected conflicts hit
  // batches that are still pending (see exec_sim.cpp for the rationale).
  workload::RecentKeyPool pool(std::max<std::size_t>(2 * cfg.batch_size, 16));

  std::vector<std::unique_ptr<workload::Generator>> generators;
  for (unsigned p = 0; p < cfg.proxies; ++p) {
    workload::GeneratorConfig gcfg;
    gcfg.disjoint_keys = true;  // conflicts come ONLY from the pool knob
    gcfg.conflict_rate = cfg.conflict_rate;
    gcfg.batch_size = cfg.batch_size;
    gcfg.cost_ns = cfg.cost_ns;
    gcfg.seed = cfg.seed;
    generators.push_back(std::make_unique<workload::Generator>(
        gcfg, p, cfg.conflict_rate > 0 ? &pool : nullptr));
  }

  for (unsigned p = 0; p < cfg.proxies; ++p) {
    smr::Proxy::Config pcfg;
    pcfg.proxy_id = p;
    pcfg.formation.batch_size = cfg.batch_size;
    pcfg.num_clients = 1024;  // keeps client_id -> proxy mapping trivial
    pcfg.formation.use_bitmap = cfg.use_bitmap;
    pcfg.formation.bitmap = bitmap;
    workload::Generator* gen = generators[p].get();
    const std::uint32_t overhead = cfg.broadcast_overhead_ns;
    proxies.push_back(std::make_unique<smr::Proxy>(
        pcfg,
        [gen](std::uint64_t client, std::uint64_t seq) { return gen->next(client, seq); },
        [&order, overhead](std::unique_ptr<smr::Batch> b) {
          if (overhead > 0) util::busy_work(overhead);
          order.broadcast(std::move(b));
        }));
  }

  for (auto& p : proxies) p->start();
  std::this_thread::sleep_for(std::chrono::duration<double>(cfg.seconds * 0.2));  // warm-up

  std::uint64_t commands_at_start = 0;
  for (auto& p : proxies) commands_at_start += p->commands_completed();
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(cfg.seconds));
  std::uint64_t commands_at_end = 0;
  for (auto& p : proxies) commands_at_end += p->commands_completed();
  const double elapsed =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - t0)
          .count();

  for (auto& p : proxies) p->stop();
  replica.wait_idle();
  replica.stop();

  const obs::Snapshot st = replica.stats();
  HarnessResult result;
  result.commands = commands_at_end - commands_at_start;
  result.kcmds_per_sec = static_cast<double>(result.commands) / elapsed / 1000.0;
  result.avg_graph_size = st.gauge("graph.size_at_insert.avg");
  result.max_graph_size = st.gauge("graph.size_at_insert.max");
  result.batches = st.counter("scheduler.batches_executed");
  result.conflicts_found = st.counter("scheduler.insert.conflicts_found");
  result.conflict_tests = st.counter("scheduler.insert.pair_tests");
  result.comparisons = st.counter("scheduler.insert.comparisons");
  stats::Histogram latency;
  for (auto& p : proxies) latency.merge(p->latency());
  result.p50_batch_latency_us = static_cast<double>(latency.p50()) / 1000.0;
  result.p99_batch_latency_us = static_cast<double>(latency.p99()) / 1000.0;
  result.metrics = st;
  // Proxy metric names already carry the proxy id (proxy.N.*): no prefix.
  for (auto& p : proxies) result.metrics.merge(p->stats());
  return result;
}

/// Shared environment knobs: PSMR_FULL=1 lengthens windows to paper scale,
/// PSMR_SECONDS overrides the window directly.
inline double bench_seconds(double quick_default) {
  if (const char* s = std::getenv("PSMR_SECONDS")) return std::atof(s);
  if (std::getenv("PSMR_FULL") != nullptr) return quick_default * 4;
  return quick_default;
}

}  // namespace psmr::bench
