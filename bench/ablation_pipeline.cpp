// Monitor vs pipelined scheduler (extension): the paper's design guards the
// dependency graph with one monitor that every worker and the delivery
// thread fight over; the pipelined variant gives the graph a single owner
// and hands work around through queues. This bench drains a pre-generated
// contention-free workload through both implementations (real threads, wall
// clock) and reports the scheduling-path throughput.
//
// With fewer CPUs than threads the difference appears as synchronization
// overhead (futex traffic, context switches) rather than parallel
// contention; with a core per thread the gap widens with the worker count.
// The banner prints the host's CPU count next to the results.
//
// Env: PSMR_BATCHES=<n> batches per cell (default 20000).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "core/pipelined_scheduler.hpp"
#include "core/scheduler.hpp"
#include "stats/table.hpp"

namespace {

std::vector<psmr::smr::BatchPtr> make_workload(std::uint64_t n_batches,
                                               std::size_t batch_size) {
  std::vector<psmr::smr::BatchPtr> batches;
  batches.reserve(n_batches);
  std::uint64_t key = 1;
  for (std::uint64_t seq = 1; seq <= n_batches; ++seq) {
    std::vector<psmr::smr::Command> cmds(batch_size);
    for (auto& c : cmds) {
      c.type = psmr::smr::OpType::kUpdate;
      c.key = key++;
    }
    auto b = std::make_shared<psmr::smr::Batch>(std::move(cmds));
    b->set_sequence(seq);
    batches.push_back(std::move(b));
  }
  return batches;
}

template <typename S>
double run(const std::vector<psmr::smr::BatchPtr>& batches, unsigned workers) {
  std::atomic<std::uint64_t> sink{0};
  psmr::core::SchedulerOptions cfg;
  cfg.workers = workers;
  // Tight backlog bound. This matters enormously for the pipelined variant:
  // its deliver() is asynchronous, so without a tight cap the producer runs
  // ahead, the graph grows to the cap, and every insert pays conflict
  // detection against the whole backlog — a quadratic blowup the monitor
  // design never sees because its insert runs synchronously in the delivery
  // thread (self-throttling). Real deployments are bounded the same way by
  // closed-loop clients.
  cfg.max_pending_batches = workers * 2 + 8;
  S scheduler(cfg, [&](const psmr::smr::Batch& b) {
    sink.fetch_add(b.size(), std::memory_order_relaxed);
  });
  scheduler.start();
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& b : batches) scheduler.deliver(b);
  scheduler.wait_idle();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  scheduler.stop();
  std::uint64_t commands = 0;
  for (const auto& b : batches) commands += b->size();
  (void)sink;
  return static_cast<double>(commands) / secs / 1000.0;
}

}  // namespace

int main() {
  std::uint64_t n_batches = 20'000;
  if (const char* s = std::getenv("PSMR_BATCHES")) n_batches = std::strtoull(s, nullptr, 10);

  std::printf("Monitor vs pipelined scheduler, contention-free drain (wall clock, "
              "%u CPU(s))\n\n",
              std::thread::hardware_concurrency());
  psmr::stats::Table table({"Batch size", "Workers", "Monitor (kCmds/s)",
                            "Pipelined (kCmds/s)", "Pipelined/Monitor"});
  for (std::size_t batch_size : {1u, 100u}) {
    const std::uint64_t batches_here = batch_size == 1 ? n_batches : n_batches / 20;
    const auto workload = make_workload(batches_here, batch_size);
    for (unsigned workers : {1u, 4u, 16u}) {
      const double monitor = run<psmr::core::Scheduler>(workload, workers);
      const double pipelined = run<psmr::core::PipelinedScheduler>(workload, workers);
      table.add_row({psmr::stats::Table::fmt_int(batch_size),
                     psmr::stats::Table::fmt_int(workers),
                     psmr::stats::Table::fmt(monitor, 0),
                     psmr::stats::Table::fmt(pipelined, 0),
                     psmr::stats::Table::fmt(pipelined / monitor, 2) + "x"});
    }
  }
  table.print();
  return 0;
}
