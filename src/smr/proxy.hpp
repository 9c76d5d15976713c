// Client proxy (paper §V-A "Batched commands" and §VI).
//
// A proxy fronts a group of clients: each round it draws one command per
// client, round-robin, and appends them into ONE batch of batch_size
// commands (the paper's append-until-full packing), computes the batch's
// Bloom digest CLIENT-SIDE ("to alleviate the burden on the parallelizer,
// the bitmaps for a batch are computed by the client proxy"), broadcasts
// it, and waits for the FIRST response to every command in the batch
// before drawing the next round — a closed loop. Offered load is therefore
// controlled by the number of proxies.
//
// Reliability (fair-lossy links, §II): the wait on a batch carries a
// deadline. On expiry the proxy RE-BROADCASTS the batch with exponential
// backoff plus seeded jitter, so a lost request or lost response no longer
// hangs the loop — replicas deduplicate retransmissions through their
// session tables and re-send the cached responses. Retransmitted batches
// carry an incremented attempt counter (observability only; the commands,
// and therefore the dedup identity (client_id, sequence), are identical).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"
#include "smr/admission.hpp"
#include "smr/batch.hpp"
#include "smr/command.hpp"
#include "stats/histogram.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace psmr::smr {

/// Exponential backoff policy for batch retransmission.
struct RetryConfig {
  /// First retransmission fires this long after the batch is broadcast.
  std::chrono::milliseconds initial{250};
  /// Backoff cap.
  std::chrono::milliseconds max{2000};
  /// Backoff growth per retransmission.
  double multiplier = 2.0;
  /// Total send attempts per batch (first send included). When exhausted
  /// the batch is ABANDONED: outstanding commands are dropped, the batch
  /// counts into batches_abandoned(), and the loop moves on. 0 = retry
  /// forever (the fair-lossy guarantee makes eventual completion certain
  /// as long as the service is live).
  unsigned max_attempts = 0;
  /// Uniform random extra delay in [0, jitter * backoff], drawn from a
  /// proxy-seeded RNG (deterministic per proxy id) — de-synchronizes
  /// retransmission storms across proxies.
  double jitter = 0.1;
};

class Proxy {
 public:
  /// Produces the next command for (client_id, sequence). Must be
  /// thread-compatible (each proxy calls its source from one thread).
  using CommandSource = std::function<Command(std::uint64_t client_id, std::uint64_t seq)>;
  /// Hands a finished batch to the total order (e.g.
  /// ConsensusAdapter::broadcast).
  using BroadcastFn = std::function<void(std::unique_ptr<Batch>)>;

  /// How this proxy forms its batch.
  struct FormationConfig {
    /// Commands per round, all in one batch (the paper evaluates 1, 100,
    /// 200).
    std::size_t batch_size = 1;
    /// Whether to attach the Bloom digest, and its parameters.
    bool use_bitmap = false;
    BitmapConfig bitmap;
  };

  /// Retransmission discipline.
  struct ReliabilityConfig {
    /// Retransmission policy for lost batches/responses.
    RetryConfig retry;
    /// true (default): back off by the rejection's retry-after hint with
    /// decorrelated jitter (AWS-style: uniform in [hint, 3·previous],
    /// capped at retry.max) — overload pushes the retry load DOWN.
    /// false: naive client, re-asks on the fixed retry.initial cadence
    /// regardless of the hint — reproduces retry-storm amplification for
    /// the regression test.
    bool honor_retry_after = true;
  };

  /// Pre-order admission control.
  struct AdmissionConfig {
    /// When set, every round acquires credits BEFORE broadcast and
    /// releases them when the round completes (or is abandoned). A
    /// rejected acquisition = the server's kOverloaded answer; the proxy
    /// backs off per reliability.honor_retry_after and tries again —
    /// nothing sheds after the order (DESIGN.md §14). Shared across
    /// proxies fronting one ingress. null = no admission control.
    std::shared_ptr<AdmissionController> controller;
  };

  /// Proxy configuration, grouped into formation / reliability /
  /// admission sub-configs.
  struct Config {
    std::uint64_t proxy_id = 0;
    /// Simulated clients behind this proxy; commands are drawn round-robin.
    std::size_t num_clients = 16;
    FormationConfig formation;
    ReliabilityConfig reliability;
    AdmissionConfig admission;
  };

  Proxy(Config config, CommandSource source, BroadcastFn broadcast);
  ~Proxy();

  Proxy(const Proxy&) = delete;
  Proxy& operator=(const Proxy&) = delete;

  /// Starts the closed loop on a dedicated thread.
  void start();

  /// Signals the loop to finish the in-flight batch and exit, then joins.
  /// Always returns promptly: the loop's waits are bounded by the retry
  /// deadline and the stop flag is checked under the same mutex, so a lost
  /// response cannot wedge the join.
  void stop();

  /// Response entry point — called by replica worker threads. Thread-safe;
  /// duplicate responses (from multiple replicas, or replayed from a
  /// session cache after a retransmission) are counted once.
  void on_response(const Response& r);

  std::uint64_t commands_completed() const noexcept {
    return commands_completed_->value();
  }
  std::uint64_t batches_completed() const noexcept {
    return batches_completed_->value();
  }
  /// Batches re-broadcast after a response deadline expired.
  std::uint64_t retransmits() const noexcept { return retransmits_->value(); }
  /// Batches given up on after RetryConfig::max_attempts sends.
  std::uint64_t batches_abandoned() const noexcept {
    return batches_abandoned_->value();
  }
  /// Admission rejections observed (each is one kOverloaded answer; a batch
  /// may collect several before finally being admitted).
  std::uint64_t admission_rejections() const noexcept {
    return admission_rejections_->value();
  }

  /// Batch round-trip latency (ns), recorded per completed round. Returns
  /// a merged copy of the registry histogram (`proxy.N.latency_ns`).
  stats::Histogram latency() const { return latency_->merged(); }

  /// Unified metrics snapshot. Names carry the proxy id (`proxy.N.metric`,
  /// like `worker.N.*` — DESIGN.md §10), so snapshots of several proxies
  /// merge into one view without collisions.
  obs::Snapshot stats() const { return metrics_->snapshot(); }

  std::uint64_t id() const noexcept { return config_.proxy_id; }

 private:
  void run_loop();
  /// Draws formation.batch_size commands round-robin across the local
  /// clients into one broadcast-ready batch (proxy id + Bloom digest
  /// applied).
  Batch build_round();
  std::chrono::nanoseconds backoff_with_jitter(std::chrono::nanoseconds backoff);

  static std::uint64_t op_token(std::uint64_t client_id, std::uint64_t seq) noexcept {
    // Client ids are dense small integers (proxy_id * num_clients + i) and
    // per-client sequences stay far below 2^32 in any feasible run, so the
    // packed token identifies the operation exactly.
    return (client_id << 32) | (seq & 0xffffffffULL);
  }

  Config config_;
  CommandSource source_;
  BroadcastFn broadcast_;

  std::vector<std::uint64_t> client_seq_;  // next sequence per local client
  util::Xoshiro256 jitter_rng_;            // seeded by proxy id: deterministic

  std::mutex mu_;
  std::condition_variable all_done_;
  std::unordered_set<std::uint64_t> outstanding_;
  bool stop_ = false;  // guarded by mu_ (lost-wakeup-free stop)

  // Registry-backed metrics (handles cached at construction).
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter* commands_completed_;
  obs::Counter* batches_completed_;
  obs::Counter* retransmits_;
  obs::Counter* batches_abandoned_;
  obs::Counter* admission_rejections_;
  obs::HistogramMetric* latency_;
  obs::HistogramMetric* admission_wait_ns_;

  std::thread thread_;
};

}  // namespace psmr::smr
