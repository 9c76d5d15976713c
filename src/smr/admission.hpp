// Pre-order admission control (DESIGN.md §14).
//
// Load shedding in a replicated state machine must happen BEFORE atomic
// broadcast: once a command is ordered, every correct replica must execute
// it, or replicas diverge. The AdmissionController therefore lives in the
// Proxy (or any other pre-order ingress), gating what enters the total
// order. A shed request gets an explicit Status::kOverloaded with a
// retry-after hint instead of silently queueing — turning overload from
// unbounded memory growth + latency collapse into a bounded, observable
// rejection rate.
//
// Two independent limits:
//   * a GLOBAL credit budget (commands in flight across all principals) —
//     sized against the downstream pipeline bound (scheduler
//     max_pending_batches × batch size) so admitted work never piles up
//     unboundedly behind the order;
//   * a PER-CLIENT in-flight cap, so one runaway client cannot consume the
//     whole budget (fairness under overload).
//
// Thread-safe: many proxy/client threads admit and release concurrently.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.hpp"

namespace psmr::smr {

class AdmissionController {
 public:
  struct Config {
    /// Total commands admitted-but-unreleased across all principals.
    /// 0 = unlimited (per-client caps may still apply).
    std::uint64_t global_credits = 0;

    /// Commands one principal may have in flight. 0 = unlimited.
    std::uint64_t per_client_inflight = 0;

    /// Retry-after hint scale: the hint is
    ///   min(retry_after_max, retry_after_base * pressure)
    /// where pressure = ceil(inflight / max(1, global_credits)) — the hint
    /// grows with how oversubscribed the budget is, so clients back off
    /// harder the deeper the overload. Deterministic (no randomness here;
    /// clients decorrelate their own jitter).
    std::chrono::milliseconds retry_after_base{5};
    std::chrono::milliseconds retry_after_max{500};

    /// Registry for `admission.*` metrics. null = private registry.
    std::shared_ptr<obs::MetricsRegistry> metrics;
  };

  struct Decision {
    bool admitted = false;
    /// Valid when !admitted: how long the caller should wait before
    /// retrying (the kOverloaded response carries this to the client).
    std::chrono::milliseconds retry_after{0};
  };

  explicit AdmissionController(Config config);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Accounts `commands` against the global budget and `principal`'s cap.
  /// All-or-nothing: a partially admittable request is fully rejected.
  Decision try_admit(std::uint64_t principal, std::uint64_t commands);

  /// Returns credits once the request completed, or its sender stopped
  /// waiting for it. Must mirror a successful try_admit exactly once.
  void release(std::uint64_t principal, std::uint64_t commands);

  std::uint64_t inflight() const;

  obs::Snapshot stats() const { return metrics_->snapshot(); }
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const noexcept {
    return metrics_;
  }

 private:
  const Config config_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter& admitted_metric_;
  obs::Counter& rejected_metric_;
  obs::Counter& rejected_client_cap_metric_;
  obs::Gauge& inflight_gauge_;

  mutable std::mutex mu_;
  std::uint64_t inflight_ = 0;  // commands admitted and not yet released
  std::unordered_map<std::uint64_t, std::uint64_t> per_client_;
};

}  // namespace psmr::smr
