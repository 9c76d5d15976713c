// Overload robustness bench (DESIGN.md §14): where is the knee, and what
// happens past it?
//
// Phase A measures saturation throughput with a closed tight loop (deliver
// as fast as the scheduler drains). Phase B then drives an OPEN-LOOP
// arrival process — tens of thousands of simulated clients issuing at a
// controlled aggregate rate, a fraction of the phase-A capacity — through
// the pre-order AdmissionController into the replica. Open loop is the
// honest overload model: arrivals do not slow down because the server is
// busy, so an unprotected server would queue without bound. The bench
// demonstrates the robustness contract instead:
//   * memory stays bounded (graph depth below max_pending_batches),
//   * ADMITTED requests keep a bounded p999 (within a small factor of the
//     at-capacity p999),
//   * the shed fraction rises smoothly past saturation instead of latency
//     collapsing.
// A Watchdog monitors end-to-end progress the whole time; a healthy run
// fires zero stall reports.
//
// Output: BENCH_overload.json (schema psmr.bench.overload.v1) and
// METRICS_overload.json (psmr.metrics.v1 snapshot of the last sweep row,
// carrying admission.*, backpressure.* and watchdog.* families).
//
// Env: PSMR_SECONDS=<s> per sweep row (default 1.0; --smoke 0.25),
// PSMR_WORKERS=<n> scheduler workers (default 4).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "consensus/group.hpp"
#include "core/scheduler.hpp"
#include "kvstore/kvstore.hpp"
#include "obs/metrics.hpp"
#include "obs/watchdog.hpp"
#include "smr/admission.hpp"
#include "smr/consensus_adapter.hpp"
#include "smr/replica.hpp"
#include "stats/histogram.hpp"
#include "util/time.hpp"
#include "workload/generator.hpp"

namespace {

struct Options {
  bool smoke = false;
  unsigned workers = 4;
  std::size_t clients = 20000;
  std::size_t max_pending_batches = 256;
  double seconds = 1.0;          // per sweep row
  double capacity_seconds = 1.0; // phase A window
};

struct RunResult {
  double multiplier = 0.0;
  double offered_rate = 0.0;   // arrivals/s targeted
  std::uint64_t offered = 0;   // arrivals generated
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  double shed_fraction = 0.0;
  double throughput = 0.0;  // completed/s over the window
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t p999_ns = 0;
  double max_graph = 0.0;
  std::uint64_t watermark_crossings = 0;
  std::uint64_t backpressure_waits = 0;
  std::uint64_t watchdog_stalls = 0;
  psmr::obs::Snapshot metrics;
};

psmr::smr::Command make_command(psmr::workload::Generator& gen, std::uint64_t client,
                                std::uint64_t seq) {
  psmr::smr::Command cmd = gen.next(client, seq);
  cmd.client_id = client;
  cmd.sequence = seq;
  return cmd;
}

/// Phase A: closed-loop saturation throughput (cmds/s). One thread delivers
/// back-to-back with blocking backpressure; the drain rate IS the capacity.
double measure_capacity(const Options& opt) {
  // Unbitmapped batches: the default BitmapConfig is never used to rebuild.
  psmr::consensus::LocalBroadcast broadcast;
  psmr::smr::ConsensusAdapter order(broadcast, psmr::smr::BitmapConfig{});
  psmr::kv::KvStore store(1024);
  psmr::kv::KvService service(store);

  psmr::smr::Replica::Config rcfg;
  rcfg.scheduler.workers = opt.workers;
  rcfg.scheduler.max_pending_batches = opt.max_pending_batches;

  std::atomic<std::uint64_t> completed{0};
  psmr::smr::Replica replica(
      rcfg, service,
      [&completed](const psmr::smr::Response&) {
        completed.fetch_add(1, std::memory_order_relaxed);
      });
  order.subscribe_replica([&](psmr::smr::BatchPtr b) { replica.deliver(b); });
  replica.start();

  psmr::workload::GeneratorConfig gcfg;
  gcfg.disjoint_keys = true;
  gcfg.batch_size = 1;
  psmr::workload::Generator gen(gcfg, /*proxy_index=*/0, nullptr);

  const std::uint64_t t0 = psmr::util::now_ns();
  const std::uint64_t end =
      t0 + static_cast<std::uint64_t>(opt.capacity_seconds * 1e9);
  std::uint64_t seq = 0;
  while (psmr::util::now_ns() < end) {
    ++seq;
    std::vector<psmr::smr::Command> cmds;
    cmds.push_back(make_command(gen, /*client=*/1 + (seq % opt.clients), seq));
    order.broadcast(std::make_unique<psmr::smr::Batch>(std::move(cmds)));
  }
  replica.wait_idle();
  const double elapsed =
      static_cast<double>(psmr::util::now_ns() - t0) / 1e9;
  replica.stop();
  return static_cast<double>(completed.load()) / elapsed;
}

/// Phase B: one open-loop sweep row at `rate` arrivals/s.
RunResult run_open_loop(const Options& opt, double multiplier, double rate) {
  using psmr::util::now_ns;

  auto registry = std::make_shared<psmr::obs::MetricsRegistry>();

  psmr::consensus::LocalBroadcast broadcast;
  psmr::smr::ConsensusAdapter order(broadcast, psmr::smr::BitmapConfig{});
  psmr::kv::KvStore store(1024);
  psmr::kv::KvService service(store);

  psmr::smr::AdmissionController::Config acfg;
  // The budget is sized against the downstream pipeline bound: what is
  // admitted can queue in the scheduler, never beyond it.
  acfg.global_credits = opt.max_pending_batches;
  acfg.per_client_inflight = 1;  // one outstanding request per client
  acfg.metrics = registry;
  auto admission = std::make_shared<psmr::smr::AdmissionController>(acfg);

  psmr::smr::Replica::Config rcfg;
  rcfg.scheduler.workers = opt.workers;
  rcfg.scheduler.max_pending_batches = opt.max_pending_batches;
  rcfg.scheduler.metrics = registry;

  // Latency bookkeeping: per-client arrival stamp (per_client_inflight == 1
  // means one live stamp per client, so a flat array suffices).
  std::unique_ptr<std::atomic<std::uint64_t>[]> arrival(
      new std::atomic<std::uint64_t>[opt.clients]);
  for (std::size_t i = 0; i < opt.clients; ++i) arrival[i].store(0);

  std::mutex hist_mu;
  psmr::stats::Histogram latency;
  std::atomic<std::uint64_t> completed{0};

  psmr::smr::Replica replica(
      rcfg, service, [&](const psmr::smr::Response& r) {
        const std::size_t idx = static_cast<std::size_t>(r.client_id) % opt.clients;
        const std::uint64_t t0 = arrival[idx].load(std::memory_order_acquire);
        const std::uint64_t now = now_ns();
        {
          std::lock_guard lk(hist_mu);
          latency.record(now > t0 ? now - t0 : 0);
        }
        completed.fetch_add(1, std::memory_order_relaxed);
        admission->release(r.client_id, 1);
      });
  order.subscribe_replica([&](psmr::smr::BatchPtr b) { replica.deliver(b); });
  replica.start();

  psmr::obs::Watchdog::Config wcfg;
  wcfg.metrics = registry;
  wcfg.poll_interval = std::chrono::milliseconds(100);
  wcfg.stall_deadline = std::chrono::milliseconds(2000);
  psmr::obs::Watchdog watchdog(wcfg);
  watchdog.add_stage(
      "replica.execute",
      [&completed] { return completed.load(std::memory_order_relaxed); },
      [&admission] { return admission->inflight() > 0; });
  watchdog.start();

  // Admitted arrivals go to a bench-local delivery thread, which builds and
  // broadcasts them. LocalBroadcast runs Replica::deliver on the caller's
  // thread, so broadcasting from the arrival loop would let the server
  // throttle the arrivals — a closed loop in disguise. The queue needs no
  // cap of its own: every queued client holds an admission credit until its
  // response, so it never exceeds global_credits entries.
  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<std::uint64_t> queue;  // admitted clients, arrival order
  bool arrivals_done = false;
  std::thread delivery([&] {
    psmr::workload::GeneratorConfig gcfg;
    gcfg.disjoint_keys = true;
    gcfg.batch_size = 1;
    psmr::workload::Generator gen(gcfg, /*proxy_index=*/0, nullptr);
    std::vector<std::uint64_t> seq(opt.clients, 0);
    std::deque<std::uint64_t> ready;
    for (;;) {
      {
        std::unique_lock lk(queue_mu);
        queue_cv.wait(lk, [&] { return arrivals_done || !queue.empty(); });
        if (queue.empty()) return;  // arrivals_done and fully drained
        ready.swap(queue);
      }
      for (const std::uint64_t client : ready) {
        std::vector<psmr::smr::Command> cmds;
        cmds.push_back(make_command(gen, client, ++seq[client]));
        order.broadcast(std::make_unique<psmr::smr::Batch>(std::move(cmds)));
      }
      ready.clear();
    }
  });

  RunResult res;
  res.multiplier = multiplier;
  res.offered_rate = rate;

  const double inter_ns = 1e9 / rate;
  const std::uint64_t t0 = now_ns();
  const std::uint64_t end = t0 + static_cast<std::uint64_t>(opt.seconds * 1e9);
  double next_arrival = static_cast<double>(t0);
  std::size_t client_ix = 0;
  while (true) {
    const std::uint64_t now = now_ns();
    if (now >= end) break;
    if (static_cast<double>(now) < next_arrival) continue;  // open-loop pacing
    next_arrival += inter_ns;
    ++res.offered;
    const std::uint64_t client = static_cast<std::uint64_t>(client_ix);
    client_ix = (client_ix + 1) % opt.clients;
    const auto decision = admission->try_admit(client, 1);
    if (!decision.admitted) {
      // Open loop: a shed arrival is gone (the simulated client backs off by
      // the returned hint; its later re-ask is a NEW arrival of the same
      // process). No server-side queueing for rejected work — that is the
      // whole point.
      ++res.shed;
      continue;
    }
    ++res.admitted;
    arrival[client].store(now, std::memory_order_release);
    std::lock_guard lk(queue_mu);
    // The delivery thread only sleeps on an empty queue.
    if (queue.empty()) queue_cv.notify_one();
    queue.push_back(client);
  }
  {
    std::lock_guard lk(queue_mu);
    arrivals_done = true;
  }
  queue_cv.notify_one();
  delivery.join();

  // Drain: everything admitted must complete (bounded, by construction).
  const std::uint64_t drain_deadline = now_ns() + 5'000'000'000ULL;
  while (admission->inflight() > 0 && now_ns() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  replica.wait_idle();
  watchdog.stop();
  replica.stop();

  const double elapsed = static_cast<double>(now_ns() - t0) / 1e9;
  res.completed = completed.load();
  res.shed_fraction = res.offered != 0
                          ? static_cast<double>(res.shed) / static_cast<double>(res.offered)
                          : 0.0;
  res.throughput = static_cast<double>(res.completed) / elapsed;
  {
    std::lock_guard lk(hist_mu);
    res.p50_ns = latency.p50();
    res.p99_ns = latency.p99();
    res.p999_ns = latency.p999();
  }
  // replica.stats() (not a raw registry snapshot): the scheduler computes
  // its graph.* gauges lazily inside stats().
  psmr::obs::Snapshot snap = replica.stats();
  res.max_graph = snap.gauge("graph.size_at_insert.max");
  res.watermark_crossings = snap.counter("backpressure.high_watermark_crossings");
  res.backpressure_waits = snap.counter("backpressure.waits");
  res.watchdog_stalls = snap.counter("watchdog.stalls");
  res.metrics = snap;
  return res;
}

int run(const Options& opt) {
  std::printf("phase A: measuring saturation throughput (%.2fs closed loop)...\n",
              opt.capacity_seconds);
  const double capacity = measure_capacity(opt);
  std::printf("  capacity: %.0f cmds/s\n", capacity);

  const double full_sweep[] = {0.5, 0.8, 1.0, 1.5, 2.0, 4.0};
  const double smoke_sweep[] = {0.5, 1.5, 3.0};
  const double* sweep = opt.smoke ? smoke_sweep : full_sweep;
  const std::size_t n_rows = opt.smoke ? std::size(smoke_sweep) : std::size(full_sweep);

  std::vector<RunResult> rows;
  double p999_at_capacity = 0.0;
  for (std::size_t i = 0; i < n_rows; ++i) {
    const double m = sweep[i];
    std::printf("phase B: open loop at %.1fx capacity (%.0f arrivals/s, %.2fs)...\n",
                m, m * capacity, opt.seconds);
    RunResult r = run_open_loop(opt, m, m * capacity);
    std::printf(
        "  offered=%llu admitted=%llu shed=%llu (%.1f%%) "
        "p50=%.1fus p99=%.1fus p999=%.1fus max_graph=%.0f stalls=%llu\n",
        static_cast<unsigned long long>(r.offered),
        static_cast<unsigned long long>(r.admitted),
        static_cast<unsigned long long>(r.shed), 100.0 * r.shed_fraction,
        static_cast<double>(r.p50_ns) / 1e3, static_cast<double>(r.p99_ns) / 1e3,
        static_cast<double>(r.p999_ns) / 1e3, r.max_graph,
        static_cast<unsigned long long>(r.watchdog_stalls));
    if (m >= 0.99 && m <= 1.01) p999_at_capacity = static_cast<double>(r.p999_ns);
    rows.push_back(std::move(r));
  }
  if (p999_at_capacity == 0.0 && !rows.empty()) {
    // Smoke sweeps skip the exact-1.0 row; anchor the ratio on the first row
    // at or below capacity.
    p999_at_capacity = static_cast<double>(rows.front().p999_ns);
  }

  FILE* f = std::fopen("BENCH_overload.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_overload.json for writing\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"overload\",\n");
  std::fprintf(f, "  \"schema\": \"psmr.bench.overload.v1\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", opt.smoke ? "true" : "false");
  std::fprintf(f, "  \"capacity_cmds_per_sec\": %.1f,\n", capacity);
  std::fprintf(f,
               "  \"config\": {\"workers\": %u, \"clients\": %zu, "
               "\"max_pending_batches\": %zu, \"global_credits\": %zu, "
               "\"per_client_inflight\": 1, \"seconds_per_row\": %.3f},\n",
               opt.workers, opt.clients, opt.max_pending_batches,
               opt.max_pending_batches, opt.seconds);
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunResult& r = rows[i];
    const double p999_ratio =
        p999_at_capacity > 0 ? static_cast<double>(r.p999_ns) / p999_at_capacity : 0.0;
    std::fprintf(
        f,
        "    {\"multiplier\": %.2f, \"offered_rate\": %.1f, \"offered\": %llu, "
        "\"admitted\": %llu, \"shed\": %llu, \"completed\": %llu, "
        "\"shed_fraction\": %.4f, \"throughput\": %.1f, "
        "\"p50_us\": %.2f, \"p99_us\": %.2f, \"p999_us\": %.2f, "
        "\"p999_ratio_vs_capacity\": %.3f, \"max_graph\": %.0f, "
        "\"watermark_crossings\": %llu, \"backpressure_waits\": %llu, "
        "\"watchdog_stalls\": %llu}%s\n",
        r.multiplier, r.offered_rate, static_cast<unsigned long long>(r.offered),
        static_cast<unsigned long long>(r.admitted),
        static_cast<unsigned long long>(r.shed),
        static_cast<unsigned long long>(r.completed), r.shed_fraction, r.throughput,
        static_cast<double>(r.p50_ns) / 1e3, static_cast<double>(r.p99_ns) / 1e3,
        static_cast<double>(r.p999_ns) / 1e3, p999_ratio, r.max_graph,
        static_cast<unsigned long long>(r.watermark_crossings),
        static_cast<unsigned long long>(r.backpressure_waits),
        static_cast<unsigned long long>(r.watchdog_stalls),
        i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_overload.json\n");

  if (!rows.empty()) {
    FILE* mf = std::fopen("METRICS_overload.json", "w");
    if (mf == nullptr) {
      std::fprintf(stderr, "cannot open METRICS_overload.json for writing\n");
      return 1;
    }
    const std::string json = rows.back().metrics.to_json();
    std::fwrite(json.data(), 1, json.size(), mf);
    std::fputc('\n', mf);
    std::fclose(mf);
    std::printf("wrote METRICS_overload.json\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) opt.smoke = true;
  }
  if (const char* w = std::getenv("PSMR_WORKERS")) {
    opt.workers = static_cast<unsigned>(std::atoi(w));
  }
  if (opt.smoke) {
    opt.seconds = 0.25;
    opt.capacity_seconds = 0.3;
    opt.clients = 4000;
  }
  if (const char* s = std::getenv("PSMR_SECONDS")) opt.seconds = std::atof(s);
  return run(opt);
}
