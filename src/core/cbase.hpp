// CBASE baseline scheduler (Kotla & Dahlin, DSN'04) — the comparator of the
// paper's evaluation.
//
// CBASE's parallelizer tracks dependencies between INDIVIDUAL commands. As
// the paper notes (§VI), this is exactly the batch scheduler instantiated
// with batches of size 1 and exact key conflict detection; this adapter
// packages that configuration behind a per-command API so baseline code
// reads like the original design. Each delivered command occupies one
// vertex of the dependency graph and is compared against every pending
// command.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "core/scheduler.hpp"

namespace psmr::core {

class CbaseScheduler {
 public:
  struct Config {
    unsigned workers = 1;
    /// Backpressure in pending commands (0 = unbounded).
    std::size_t max_pending_commands = 0;
  };

  using Executor = std::function<void(const smr::Command&)>;

  CbaseScheduler(Config config, Executor executor)
      : scheduler_(
            SchedulerOptions{.workers = config.workers,
                             .mode = ConflictMode::kKeysNested,
                             .max_pending_batches = config.max_pending_commands,
                             .metrics = nullptr},
            [executor = std::move(executor)](const smr::Batch& batch) {
              for (const smr::Command& cmd : batch.commands()) executor(cmd);
            }) {}

  void start() { scheduler_.start(); }
  void stop() { scheduler_.stop(); }
  void wait_idle() { scheduler_.wait_idle(); }

  /// Delivers the next command in total order (single caller at a time).
  bool deliver(const smr::Command& cmd) {
    auto batch = std::make_shared<smr::Batch>(std::vector<smr::Command>{cmd});
    batch->set_sequence(++next_seq_);
    return scheduler_.deliver(std::move(batch));
  }

  /// Unified metrics snapshot — same names/schema as Scheduler::stats().
  obs::Snapshot stats() const { return scheduler_.stats(); }
  std::size_t graph_size() const { return scheduler_.graph_size(); }

 private:
  std::uint64_t next_seq_ = 0;
  Scheduler scheduler_;
};

}  // namespace psmr::core
