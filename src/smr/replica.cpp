#include "smr/replica.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "util/assert.hpp"

namespace psmr::smr {

Replica::Replica(Config config, Service& service, ResponseSink sink)
    : config_(std::move(config)),
      service_(service),
      sink_(std::move(sink)),
      metrics_(config_.scheduler.metrics != nullptr
                   ? config_.scheduler.metrics
                   : std::make_shared<obs::MetricsRegistry>()),
      batches_delivered_(&metrics_->counter("scheduler.batches_delivered")),
      batches_deduped_(&metrics_->counter("replica.batches_deduped")),
      responses_from_cache_(&metrics_->counter("replica.responses_from_cache")),
      batches_rejected_(&metrics_->counter("replica.batches_rejected")),
      scheduler_(
          [&] {
            // The scheduler publishes into the replica's registry, so one
            // snapshot carries replica.* and scheduler.* together.
            core::SchedulerOptions opts = config_.scheduler;
            opts.metrics = metrics_;
            return opts;
          }(),
          [this](const Batch& b) { execute_batch(b); }) {
  metrics_->gauge("replica.id").set(static_cast<double>(config_.replica_id));
  if (config_.checkpoint_interval != 0) {
    PSMR_CHECK(config_.checkpoint_state != nullptr);
    CheckpointManager::Options copts;
    copts.interval = config_.checkpoint_interval;
    copts.metrics = metrics_;  // checkpoint.* joins the replica snapshot
    checkpoints_ = std::make_unique<CheckpointManager>(
        std::move(copts),
        CheckpointManager::Barrier{
            [this](std::uint64_t seq) { scheduler_.drain_to_sequence(seq); },
            [this] { scheduler_.release_barrier(); }},
        config_.checkpoint_state,
        config_.exactly_once ? &sessions_ : nullptr);
  }
}

bool Replica::install_checkpoint(const CheckpointRecord& record) {
  PSMR_CHECK(config_.checkpoint_install != nullptr);
  if (!config_.checkpoint_install(record.state)) return false;
  if (config_.exactly_once && !record.sessions.empty() &&
      !sessions_.deserialize(record.sessions)) {
    return false;
  }
  if (checkpoints_ != nullptr) {
    checkpoints_->adopt(std::make_shared<const CheckpointRecord>(record));
  }
  return true;
}

bool Replica::deliver(BatchPtr batch) {
  const std::uint64_t seq = batch != nullptr ? batch->sequence() : 0;
  if (batch != nullptr && config_.scheduler.mode == core::ConflictMode::kBitmap &&
      !batch->has_bitmap()) {
    // The digest flag travels in the payload, so a batch from another
    // process may arrive without one, and the bitmap pair test cannot rule
    // on it. Every replica rejects it at the same sequence, executes none
    // of it and leaves the session table alone, so a retransmission that
    // carries a digest still runs exactly once.
    for (const Command& c : batch->commands()) {
      Response r;
      r.client_id = c.client_id;
      r.sequence = c.sequence;
      r.status = Status::kFailed;
      if (sink_) sink_(r);
    }
    batches_rejected_->add(1);
    if (checkpoints_ != nullptr) checkpoints_->on_delivered(seq);
    return true;
  }
  if (config_.exactly_once && batch != nullptr && !batch->empty()) {
    // Fast path: a batch whose every command has already been finished is a
    // retransmission; answer from the cache without polluting the graph.
    // (Replicas may disagree on whether the fast path fires — execution
    // progress differs — but not on state: the slow path deduplicates the
    // same commands at execution time.)
    bool all_finished = true;
    for (const Command& c : batch->commands()) {
      if (c.sequence == 0 ||
          sessions_.peek(c.client_id, c.sequence, nullptr) == SessionTable::Gate::kExecute) {
        all_finished = false;
        break;
      }
    }
    if (all_finished) {
      for (const Command& c : batch->commands()) {
        Response cached;
        if (sessions_.peek(c.client_id, c.sequence, &cached) ==
            SessionTable::Gate::kDuplicate) {
          if (sink_) sink_(cached);
          responses_from_cache_->add(1);
        }
      }
      batches_deduped_->add(1);
      // A deduped sequence still advances the checkpoint clock: every
      // replica checkpoints at the same sequence whether or not its fast
      // path fired (the captured state is identical either way).
      if (checkpoints_ != nullptr) checkpoints_->on_delivered(seq);
      return true;
    }
  }
  if (!scheduler_.deliver(std::move(batch))) return false;
  if (checkpoints_ != nullptr) checkpoints_->on_delivered(seq);
  return true;
}

void Replica::execute_batch(const Batch& batch) {
  // Commands in the same batch are executed sequentially, in the given
  // order (§V-A, third bullet). Once a command throws, the remainder of the
  // batch is failed too (a partial batch must not silently skip ahead); all
  // failed commands get error responses so closed-loop clients never hang.
  bool failed = false;
  std::string what;
  for (const Command& cmd : batch.commands()) {
    const bool tracked = config_.exactly_once && cmd.sequence != 0;
    if (tracked) {
      Response cached;
      switch (sessions_.begin(cmd.client_id, cmd.sequence, &cached)) {
        case SessionTable::Gate::kExecute:
          break;
        case SessionTable::Gate::kDuplicate:
          if (sink_) sink_(cached);  // re-send, don't re-execute
          responses_from_cache_->add(1);
          continue;
        case SessionTable::Gate::kInFlight:
        case SessionTable::Gate::kStale:
          continue;  // a twin or a newer command owns the reply
      }
    }
    Response r;
    r.client_id = cmd.client_id;
    r.sequence = cmd.sequence;
    if (failed) {
      r.status = Status::kFailed;
    } else {
      try {
        r = service_.execute(cmd);
      } catch (const std::exception& e) {
        failed = true;
        what = e.what();
        r.status = Status::kFailed;
      } catch (...) {
        failed = true;
        what = "non-standard exception";
        r.status = Status::kFailed;
      }
    }
    if (tracked) sessions_.finish(r);
    if (sink_) sink_(r);
  }
  if (failed) {
    // Surface the failure to the scheduler AFTER every response is out: the
    // scheduler accounts the batch as failed, trips its circuit if
    // configured, and keeps the worker alive.
    throw std::runtime_error("service execution failed: " + what);
  }
}

}  // namespace psmr::smr
