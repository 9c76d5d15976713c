// Overload × faults (DESIGN.md §14): robustness features must compose.
//   * A circuit breaker tripping WHILE the admission controller is shedding
//     must not wedge anything: degraded mode drains, shedding continues,
//     the breaker half-opens on clean batches, and execution resumes.
//   * A checkpoint quiesce barrier must complete while a deliver() is
//     blocked on the full queue (backpressure and the barrier share worker
//     wakeups — neither may starve the other).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/scheduler.hpp"
#include "smr/admission.hpp"

namespace psmr::core {
namespace {

using namespace std::chrono_literals;

smr::BatchPtr make_batch(std::uint64_t seq, smr::Key key,
                         std::uint64_t client = 0) {
  std::vector<smr::Command> cmds;
  smr::Command c;
  c.type = smr::OpType::kUpdate;
  c.key = key;
  c.value = seq;
  c.client_id = client;
  cmds.push_back(c);
  auto b = std::make_shared<smr::Batch>(std::move(cmds));
  b->set_sequence(seq);
  return b;
}

TEST(OverloadChaos, BreakerTripsWhileSaturatedThenRecovers) {
  smr::AdmissionController::Config acfg;
  acfg.global_credits = 2;
  smr::AdmissionController admission(acfg);

  std::atomic<bool> poison{true};
  std::atomic<std::uint64_t> executed{0};

  SchedulerOptions cfg;
  cfg.workers = 2;
  cfg.max_pending_batches = 4;
  cfg.circuit_failure_threshold = 3;
  cfg.circuit_recovery_threshold = 2;
  Scheduler s(cfg, [&](const smr::Batch& b) {
    std::this_thread::sleep_for(1ms);  // keeps the admitting loop saturated
    if (poison.load(std::memory_order_acquire)) {
      throw std::runtime_error("injected service fault");
    }
    executed.fetch_add(1, std::memory_order_relaxed);
    admission.release(b.commands().front().client_id, 1);
  });
  s.set_on_failure([&](const smr::Batch& b, const std::string&) {
    // Failed batches return their credits too — overload accounting must
    // survive the fault path.
    admission.release(b.commands().front().client_id, 1);
  });
  s.start();

  std::uint64_t seq = 0;
  std::uint64_t shed = 0;
  const auto offer = [&](std::uint64_t client) {
    if (!admission.try_admit(client, 1).admitted) {
      ++shed;
      return false;
    }
    // Distinct keys: batches run concurrently, so saturation is real.
    ++seq;
    // Blocks while the queue is full: what admission let in is never lost.
    EXPECT_TRUE(s.deliver(make_batch(seq, /*key=*/seq * 31, client)));
    return true;
  };

  // Phase 1: saturate with poisoned work until the breaker trips.
  const auto phase1_deadline = std::chrono::steady_clock::now() + 10s;
  std::uint64_t client = 0;
  while (!s.degraded() && std::chrono::steady_clock::now() < phase1_deadline) {
    offer(client++ % 64);
  }
  ASSERT_TRUE(s.degraded()) << "breaker never tripped under poisoned load";
  EXPECT_GE(shed, 1u) << "admission never shed while saturated";

  // Phase 2: faults stop; keep offering under the same overload. Degraded
  // (sequential) mode must DRAIN, and enough clean batches half-open and
  // close the circuit.
  poison.store(false, std::memory_order_release);
  const std::uint64_t executed_at_trip = executed.load();
  const auto phase2_deadline = std::chrono::steady_clock::now() + 10s;
  while (s.degraded() && std::chrono::steady_clock::now() < phase2_deadline) {
    offer(client++ % 64);
  }
  EXPECT_FALSE(s.degraded()) << "breaker never recovered after faults stopped";

  // Phase 3: execution has resumed at full service.
  const auto phase3_deadline = std::chrono::steady_clock::now() + 10s;
  while (executed.load() < executed_at_trip + 10 &&
         std::chrono::steady_clock::now() < phase3_deadline) {
    offer(client++ % 64);
  }
  s.wait_idle();
  EXPECT_GE(executed.load(), executed_at_trip + 10) << "execution did not resume";

  const auto st = s.stats();
  EXPECT_GE(st.counter("scheduler.batches_failed"), 3u);
  EXPECT_GE(st.counter("scheduler.batches_executed"), 10u);
  s.stop();
  EXPECT_EQ(admission.inflight(), 0u) << "credits leaked across the fault path";
}

TEST(OverloadChaos, BarrierCompletesWhileDeliverBlockedOnFullQueue) {
  std::atomic<bool> release{false};
  std::atomic<std::uint64_t> executed{0};

  SchedulerOptions cfg;
  cfg.workers = 1;
  cfg.max_pending_batches = 2;
  Scheduler s(cfg, [&](const smr::Batch&) {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(1ms);
    }
    executed.fetch_add(1, std::memory_order_relaxed);
  });
  s.start();

  ASSERT_TRUE(s.deliver(make_batch(1, 10)));
  ASSERT_TRUE(s.deliver(make_batch(2, 20)));  // queue now at capacity

  std::atomic<bool> delivered{false};
  std::thread orderer([&] {
    // Blocks in backpressure until the checkpoint drain frees a slot.
    EXPECT_TRUE(s.deliver(make_batch(3, 30)));
    delivered.store(true);
  });
  std::this_thread::sleep_for(30ms);
  EXPECT_FALSE(delivered.load());

  // Checkpoint quiesce at the full-queue prefix. The workers are still
  // parked; arming must not deadlock against the blocked deliver.
  s.begin_barrier(2);
  release.store(true, std::memory_order_release);
  s.await_barrier();  // completes: prefix <= 2 fully executed
  EXPECT_GE(executed.load(), 2u);

  orderer.join();  // the blocked deliver got its slot during the drain
  EXPECT_TRUE(delivered.load());

  s.release_barrier();
  s.wait_idle();
  EXPECT_EQ(executed.load(), 3u);  // the held-back suffix ran after release
  s.stop();
}

}  // namespace
}  // namespace psmr::core
