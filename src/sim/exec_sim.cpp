#include "sim/exec_sim.hpp"

#include <algorithm>
#include <memory>
#include <queue>
#include <vector>

#include "core/dependency_graph.hpp"
#include "smr/batch.hpp"
#include "util/assert.hpp"
#include "util/time.hpp"
#include "workload/generator.hpp"

namespace psmr::sim {

namespace {

struct Event {
  enum class Kind : std::uint8_t { kArrival, kWorkerFinish };
  std::uint64_t at_ns;
  std::uint64_t tiebreak;
  Kind kind;
  unsigned proxy = 0;                         // kArrival
  core::DependencyGraph::Node* node = nullptr;  // kWorkerFinish

  bool operator>(const Event& o) const {
    if (at_ns != o.at_ns) return at_ns > o.at_ns;
    return tiebreak > o.tiebreak;
  }
};

/// Times a callable with the real monotonic clock; returns (result, ns).
template <typename F>
std::uint64_t timed(F&& f) {
  const std::uint64_t t0 = util::now_ns();
  f();
  return util::now_ns() - t0;
}

}  // namespace

ExecSimResult run_exec_sim(const ExecSimConfig& cfg) {
  PSMR_CHECK(cfg.workers >= 1);
  PSMR_CHECK(cfg.proxies >= 1);
  PSMR_CHECK(cfg.batch_size >= 1);

  core::DependencyGraph graph(cfg.mode, cfg.index);

  smr::BitmapConfig bitmap;
  bitmap.bits = cfg.bitmap_bits;

  // Conflict keys must land on batches still PENDING in the graph, so the
  // pool only retains the last couple of batches' keys (the in-flight
  // window); a larger pool would mostly sample keys of batches that already
  // executed, creating no dependency.
  workload::RecentKeyPool pool(std::max<std::size_t>(2 * cfg.batch_size, 16));
  std::vector<std::unique_ptr<workload::Generator>> gens;
  for (unsigned p = 0; p < cfg.proxies; ++p) {
    workload::GeneratorConfig gcfg;
    if (cfg.zipf_theta > 0.0) {
      gcfg.disjoint_keys = false;
      gcfg.distribution = workload::KeyDistribution::kZipf;
      gcfg.zipf_theta = cfg.zipf_theta;
      gcfg.key_space = cfg.key_space;
    } else {
      gcfg.disjoint_keys = true;
    }
    gcfg.conflict_rate = cfg.conflict_rate;
    gcfg.batch_size = cfg.batch_size;
    gcfg.seed = cfg.seed;
    gens.push_back(std::make_unique<workload::Generator>(
        gcfg, p, cfg.conflict_rate > 0 ? &pool : nullptr));
  }

  auto make_batch = [&](unsigned proxy) {
    std::vector<smr::Command> cmds;
    cmds.reserve(cfg.batch_size);
    for (std::size_t i = 0; i < cfg.batch_size; ++i) {
      cmds.push_back(gens[proxy]->next(proxy, i));
    }
    auto b = std::make_shared<smr::Batch>(std::move(cmds));
    b->set_proxy_id(proxy);
    // Bitmaps are computed client-side (§VI) — their cost does not occupy
    // the replica's monitor, matching the paper's design.
    if (cfg.use_bitmap) b->build_bitmap(bitmap);
    return b;
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t tiebreak = 0;
  for (unsigned p = 0; p < cfg.proxies; ++p) {
    events.push(Event{cfg.broadcast_ns, tiebreak++, Event::Kind::kArrival, p, nullptr});
  }

  std::uint64_t now = 0;
  std::uint64_t monitor_free_at = 0;
  std::uint64_t delivery_free_at = 0;
  std::uint64_t monitor_busy_ns = 0;
  std::uint64_t worker_busy_ns = 0;
  unsigned idle_workers = cfg.workers;
  std::uint64_t next_seq = 1;
  std::uint64_t commands_done = 0;
  std::uint64_t batches_done = 0;

  const std::uint64_t warmup_commands =
      static_cast<std::uint64_t>(cfg.warmup_fraction * static_cast<double>(cfg.commands_target));
  std::uint64_t warmup_time_ns = 0;
  std::uint64_t warmup_commands_actual = 0;
  bool warmed_up = false;

  // Tries to hand free batches to idle virtual workers; each successful or
  // failed dgGetBatch occupies the monitor for its real measured duration.
  auto dispatch = [&] {
    while (idle_workers > 0) {
      const std::uint64_t start = std::max(now, monitor_free_at);
      core::DependencyGraph::Node* node = nullptr;
      const std::uint64_t d = timed([&] { node = graph.take_oldest_free(); });
      monitor_free_at = start + d;
      monitor_busy_ns += d;
      if (node == nullptr) break;  // workers go back to waiting on the cv
      --idle_workers;
      const std::uint64_t exec_ns =
          static_cast<std::uint64_t>(node->batch->size()) * cfg.cmd_exec_ns;
      worker_busy_ns += exec_ns;
      events.push(Event{monitor_free_at + exec_ns, tiebreak++,
                        Event::Kind::kWorkerFinish, 0, node});
    }
  };

  while (commands_done < cfg.commands_target && !events.empty()) {
    const Event ev = events.top();
    events.pop();
    now = ev.at_ns;

    switch (ev.kind) {
      case Event::Kind::kArrival: {
        // Serial delivery path (one delivery thread): syscall/decode cost,
        // then the monitor-protected insert, measured for real. Key-mode
        // comparisons additionally carry the calibrated per-comparison
        // charge (see ExecSimConfig::key_compare_cost_ns).
        std::shared_ptr<smr::Batch> batch = make_batch(ev.proxy);
        batch->set_sequence(next_seq++);
        const std::uint64_t deliver_start = std::max(now, delivery_free_at) + cfg.delivery_ns;
        const std::uint64_t start = std::max(deliver_start, monitor_free_at);
        const std::uint64_t comparisons_before = graph.conflict_stats().comparisons;
        std::uint64_t d = timed([&] { graph.insert(batch); });
        const std::uint64_t comparisons =
            graph.conflict_stats().comparisons - comparisons_before;
        if (cfg.mode == core::ConflictMode::kKeysNested) {
          d += comparisons * cfg.key_compare_cost_ns;
        } else {
          d += comparisons * cfg.bitmap_word_cost_ns;  // comparisons = words scanned
        }
        monitor_free_at = start + d;
        monitor_busy_ns += d;
        delivery_free_at = monitor_free_at;
        dispatch();
        break;
      }
      case Event::Kind::kWorkerFinish: {
        const unsigned proxy = static_cast<unsigned>(ev.node->batch->proxy_id());
        const std::uint64_t batch_cmds = ev.node->batch->size();
        const std::uint64_t start = std::max(now, monitor_free_at);
        const std::uint64_t d = timed([&] { graph.remove(ev.node); });
        monitor_free_at = start + d;
        monitor_busy_ns += d;
        ++idle_workers;
        commands_done += batch_cmds;
        ++batches_done;
        if (!warmed_up && commands_done >= warmup_commands) {
          warmed_up = true;
          warmup_time_ns = monitor_free_at;
          warmup_commands_actual = commands_done;
        }
        // The proxy sees the first response and submits its next batch one
        // transport round-trip later (closed loop, §VI).
        events.push(Event{monitor_free_at + cfg.broadcast_ns, tiebreak++,
                          Event::Kind::kArrival, proxy, nullptr});
        dispatch();
        break;
      }
    }
  }

  ExecSimResult result;
  const std::uint64_t end_ns = std::max(now, monitor_free_at);
  const std::uint64_t window_ns = end_ns > warmup_time_ns ? end_ns - warmup_time_ns : 1;
  result.commands = commands_done - warmup_commands_actual;
  result.batches = batches_done;
  result.virtual_seconds = static_cast<double>(window_ns) / 1e9;
  result.kcmds_per_sec =
      static_cast<double>(result.commands) / result.virtual_seconds / 1000.0;
  result.avg_graph_size = graph.size_at_insert().mean();
  result.monitor_utilization =
      static_cast<double>(monitor_busy_ns) / static_cast<double>(end_ns);
  result.worker_utilization = static_cast<double>(worker_busy_ns) /
                              static_cast<double>(end_ns) /
                              static_cast<double>(cfg.workers);
  result.conflicts_found = graph.conflict_stats().conflicts_found;
  result.conflict_tests = graph.conflict_stats().tests;
  return result;
}

}  // namespace psmr::sim
