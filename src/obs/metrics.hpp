// Unified observability layer: one metrics registry, one snapshot type, one
// JSON schema across the stack (DESIGN.md §10).
//
// Before this layer, every component grew its own incompatible stats struct
// and mutex (`Scheduler::Stats`, proxy counter accessors, the consensus
// group's broadcast counter). Each surface had its own field names, its own
// locking, and no common export path — bench numbers were only measurable
// through one-off counters. This header replaces that sprawl:
//
//   * MetricsRegistry — named counters / gauges / histograms. Creation is
//     mutex-guarded (cold path, components cache the returned handles);
//     updates are lock-cheap: counters are per-thread sharded relaxed
//     atomics, histograms are striped over the existing stats::Histogram.
//   * Snapshot — a point-in-time, self-describing export of every metric,
//     with typed accessors for tests and `to_json()` for tooling. The JSON
//     schema (`psmr.metrics.v1`) is documented in DESIGN.md §10 and
//     validated by tools/check_metrics_json.py in CI.
//
// Naming scheme: dot-separated `component.subsystem.metric`, e.g.
// `scheduler.insert.pair_tests`, `graph.resident_batches`,
// `worker.3.batches_executed`. The full catalogue lives in DESIGN.md §10.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "stats/histogram.hpp"

namespace psmr::obs {

namespace detail {
/// Stable per-thread shard index. Threads are striped round-robin at first
/// use, so N short-lived threads do not all collide on shard 0.
std::size_t thread_shard() noexcept;
}  // namespace detail

/// Monotonic event counter, per-thread sharded: add() is one relaxed
/// fetch_add on the calling thread's cache line; value() sums the shards.
/// Successive value() reads from one observer thread are monotonic (each
/// cell only grows and cells are read in a fixed order).
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t n = 1) noexcept {
    cells_[detail::thread_shard() & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kShards> cells_{};
};

/// Last-write-wins scalar (graph size, degraded flag, configuration values).
class Gauge {
 public:
  void set(double v) noexcept { bits_.store(encode(v), std::memory_order_relaxed); }
  double value() const noexcept { return decode(bits_.load(std::memory_order_relaxed)); }

 private:
  static std::uint64_t encode(double v) noexcept {
    std::uint64_t b;
    static_assert(sizeof(b) == sizeof(v));
    __builtin_memcpy(&b, &v, sizeof(b));
    return b;
  }
  static double decode(std::uint64_t b) noexcept {
    double v;
    __builtin_memcpy(&v, &b, sizeof(v));
    return v;
  }
  std::atomic<std::uint64_t> bits_{0};
};

/// Latency histogram, striped: record() takes one of kStripes small mutexes
/// (selected by thread shard), so concurrent recorders from different
/// threads rarely contend and never serialize on a single global lock.
class HistogramMetric {
 public:
  static constexpr std::size_t kStripes = 8;

  void record(std::uint64_t value) noexcept {
    Stripe& s = stripes_[detail::thread_shard() & (kStripes - 1)];
    std::lock_guard lk(s.mu);
    s.h.record(value);
  }

  /// Merged view across all stripes.
  stats::Histogram merged() const {
    stats::Histogram out;
    for (const Stripe& s : stripes_) {
      std::lock_guard lk(s.mu);
      out.merge(s.h);
    }
    return out;
  }

 private:
  struct Stripe {
    mutable std::mutex mu;
    stats::Histogram h;
  };
  std::array<Stripe, kStripes> stripes_;
};

/// Point-in-time summary of one histogram (what Snapshot stores/exports).
struct HistogramSummary {
  std::uint64_t count = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  double mean = 0.0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;

  static HistogramSummary from(const stats::Histogram& h);
};

/// One point-in-time view of a set of metrics. Self-describing and
/// name-addressed: absent names read as zero, so consumers never break when
/// a component stops emitting a metric. Ordered storage keeps to_json()
/// output deterministic.
class Snapshot {
 public:
  void set_counter(std::string name, std::uint64_t v) { counters_[std::move(name)] = v; }
  void set_gauge(std::string name, double v) { gauges_[std::move(name)] = v; }
  void set_histogram(std::string name, HistogramSummary h) {
    histograms_[std::move(name)] = h;
  }

  /// Typed reads; a missing name yields a zero value (never throws).
  std::uint64_t counter(std::string_view name) const;
  double gauge(std::string_view name) const;
  HistogramSummary histogram(std::string_view name) const;
  bool has_counter(std::string_view name) const;

  /// Sum of every counter whose name ends in `suffix` — aggregates the
  /// per-component replicas of one metric across merge() prefixes (e.g.
  /// `worker.N.batches_executed` across workers).
  std::uint64_t counter_sum(std::string_view suffix) const;

  /// Copies every entry of `other` into this snapshot, prepending `prefix`
  /// to each name (harness use: one merged view over many components).
  void merge(const Snapshot& other, std::string_view prefix = {});

  /// The documented `psmr.metrics.v1` export:
  ///   {"schema":"psmr.metrics.v1","counters":{...},"gauges":{...},
  ///    "histograms":{name:{count,min,max,mean,p50,p99,p999}}}
  std::string to_json() const;

  const std::map<std::string, std::uint64_t, std::less<>>& counters() const {
    return counters_;
  }
  const std::map<std::string, double, std::less<>>& gauges() const { return gauges_; }
  const std::map<std::string, HistogramSummary, std::less<>>& histograms() const {
    return histograms_;
  }

  static constexpr const char* kSchema = "psmr.metrics.v1";

 private:
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, HistogramSummary, std::less<>> histograms_;
};

/// Owns named metrics; hands out stable references. Registration takes a
/// mutex (components do it once, at construction, and cache the handle);
/// metric updates never touch the registry again.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  HistogramMetric& histogram(std::string_view name);

  /// Reads every registered metric. Safe to call concurrently with updates;
  /// counters observed are monotonic across successive snapshots.
  Snapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>, std::less<>> histograms_;
};

}  // namespace psmr::obs
