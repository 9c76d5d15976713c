// Watermark/backpressure instrumentation for the Scheduler's bounded
// delivery queue (DESIGN.md §14). The scheduler owns one meter.
//
// Thread-safety: update() and the wait counters are called only from the
// single delivery thread of the owning scheduler, which is the contract
// everywhere deliver() already lives. The gauges/counters themselves are
// registry handles and safe to snapshot concurrently.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "obs/metrics.hpp"
#include "util/time.hpp"

namespace psmr::core {

/// Watermarks of a bounded delivery queue, as fractions of its capacity
/// (SchedulerOptions::max_pending_batches). The `backpressure.above_high`
/// gauge flips to 1 when resident depth reaches the high mark and back to 0
/// once it drains to the low mark (hysteresis, so a queue oscillating near
/// the threshold doesn't thrash the gauge);
/// `backpressure.high_watermark_crossings` counts the 0→1 edges.
inline constexpr double kHighWatermarkFraction = 0.875;
inline constexpr double kLowWatermarkFraction = 0.5;

class BackpressureMeter {
 public:
  // All metrics are registered eagerly so they appear (at zero) in every
  // snapshot — tools/check_metrics_json.py --require depends on that.
  BackpressureMeter(obs::MetricsRegistry& registry, std::size_t capacity)
      : waits_(registry.counter("backpressure.waits")),
        crossings_(registry.counter("backpressure.high_watermark_crossings")),
        wait_ns_(registry.histogram("backpressure.wait_ns")),
        depth_(registry.gauge("backpressure.queue_depth")),
        capacity_gauge_(registry.gauge("backpressure.capacity")),
        high_gauge_(registry.gauge("backpressure.high_watermark")),
        low_gauge_(registry.gauge("backpressure.low_watermark")),
        above_high_(registry.gauge("backpressure.above_high")) {
    capacity_gauge_.set(static_cast<double>(capacity));
    if (capacity != 0) {
      const auto bound = static_cast<double>(capacity);
      high_mark_ = std::max<std::size_t>(
          1, static_cast<std::size_t>(bound * kHighWatermarkFraction));
      low_mark_ = std::min(high_mark_ - 1,
                           static_cast<std::size_t>(bound * kLowWatermarkFraction));
    }
    high_gauge_.set(static_cast<double>(high_mark_));
    low_gauge_.set(static_cast<double>(low_mark_));
  }

  /// Publish the current resident depth and run the watermark hysteresis:
  /// `above_high` flips to 1 at depth >= high mark and back to 0 only once
  /// depth drains to <= low mark.
  void update(std::size_t depth) {
    depth_.set(static_cast<double>(depth));
    if (high_mark_ == 0) return;  // unbounded queue: no watermark semantics
    if (!above_) {
      if (depth >= high_mark_) {
        above_ = true;
        above_high_.set(1);
        crossings_.add(1);
      }
    } else if (depth <= low_mark_) {
      above_ = false;
      above_high_.set(0);
    }
  }

  /// Blocks on `cv` until `have_space()` holds and counts the wait, if
  /// there was one. `lk` holds the mutex that guards `have_space()`, which
  /// must also turn true once the owner stops.
  template <typename HaveSpace>
  void wait_for_space(std::unique_lock<std::mutex>& lk, std::condition_variable& cv,
                      HaveSpace have_space) {
    if (have_space()) return;
    const std::uint64_t t0 = util::now_ns();
    cv.wait(lk, have_space);
    count_wait(util::now_ns() - t0);
  }

  void count_wait(std::uint64_t wait_ns) {
    waits_.add(1);
    wait_ns_.record(wait_ns);
  }

 private:
  obs::Counter& waits_;
  obs::Counter& crossings_;
  obs::HistogramMetric& wait_ns_;
  obs::Gauge& depth_;
  obs::Gauge& capacity_gauge_;
  obs::Gauge& high_gauge_;
  obs::Gauge& low_gauge_;
  obs::Gauge& above_high_;
  std::size_t high_mark_ = 0;
  std::size_t low_mark_ = 0;
  bool above_ = false;
};

}  // namespace psmr::core
