// Shared teardown helper for chaos deployments: after the proxies stop, the
// learners may still be gap-recovering lost Decides, so replicas are
// drained until every one of them has consumed the same delivery prefix,
// stably, and finished executing it, before the transport is torn down.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "smr/replica.hpp"

namespace psmr::chaos {

/// Returns once every replica reports the same
/// Replica::batches_consumed() for four consecutive 50 ms polls and has
/// then gone idle. Every replica sees the same stream, so that count
/// converges; execution counts do not, because the dedup fast path answers
/// a fully duplicated batch on one replica while another, further behind in
/// execution, schedules it and skips its commands one by one. Reaching
/// `cap` first fails the calling test and prints each replica's counts.
inline void drain_replicas(const std::vector<smr::Replica*>& replicas,
                           std::chrono::seconds cap = std::chrono::seconds(15)) {
  const auto deadline = std::chrono::steady_clock::now() + cap;
  std::uint64_t stable_count = ~std::uint64_t{0};
  int stable_rounds = 0;
  while (stable_rounds < 4) {
    if (std::chrono::steady_clock::now() >= deadline) {
      std::ostringstream report;
      for (std::size_t i = 0; i < replicas.size(); ++i) {
        const auto st = replicas[i]->stats();
        report << "\n  replica " << i << ": batches_delivered "
               << st.counter("scheduler.batches_delivered") << ", batches_deduped "
               << st.counter("replica.batches_deduped") << ", batches_rejected "
               << st.counter("replica.batches_rejected") << ", commands_executed "
               << st.counter("scheduler.commands_executed") << ", batches_failed "
               << st.counter("scheduler.batches_failed");
      }
      ADD_FAILURE() << "replicas did not converge on one delivery prefix within "
                    << cap.count() << " s:" << report.str();
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
    for (smr::Replica* r : replicas) {
      const std::uint64_t n = r->batches_consumed();
      lo = std::min(lo, n);
      hi = std::max(hi, n);
    }
    if (lo == hi && hi == stable_count) {
      ++stable_rounds;
    } else {
      stable_rounds = 0;
      stable_count = lo == hi ? hi : ~std::uint64_t{0};
    }
  }
  for (smr::Replica* r : replicas) r->wait_idle();
}

}  // namespace psmr::chaos
