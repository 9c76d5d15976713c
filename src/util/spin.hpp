// CPU pause + calibrated busy work.
//
// `busy_work(ns)` is the knob behind the paper's "light vs heavy request
// processing" (§VII-A): the KV service can be configured to burn a fixed
// number of nanoseconds per command, which dilutes or exposes scheduling
// overhead without touching the scheduler. The loop is calibrated once per
// process so the cost is stable across the run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace psmr::util {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

namespace detail {

inline std::uint64_t spin_iterations(std::uint64_t n) noexcept {
  // Data-dependent loop the optimizer cannot collapse.
  std::uint64_t x = n | 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Iterations per microsecond, measured once. A single probe run in a cold
/// process reads up to 2x slow (clock ramp-up, a preemption), which makes
/// every later busy_work burn well short of its request; the fastest of
/// several short probes is the uncontended rate, since interference only
/// ever adds time.
inline double calibrate_iters_per_us() {
  using clock = std::chrono::steady_clock;
  constexpr std::uint64_t kProbe = 250'000;
  constexpr int kProbes = 8;
  double best_us = 0;
  for (int i = 0; i < kProbes; ++i) {
    volatile std::uint64_t sink = 0;
    const auto t0 = clock::now();
    sink = spin_iterations(kProbe);
    const auto t1 = clock::now();
    (void)sink;
    const double us =
        std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(t1 - t0)
            .count();
    if (us > 0 && (best_us == 0 || us < best_us)) best_us = us;
  }
  return best_us > 0 ? static_cast<double>(kProbe) / best_us : 1000.0;
}

inline double iters_per_us() {
  static const double v = calibrate_iters_per_us();
  return v;
}

}  // namespace detail

/// Burns approximately `ns` nanoseconds of CPU. ns == 0 is free.
inline void busy_work(std::uint64_t ns) {
  if (ns == 0) return;
  const auto iters =
      static_cast<std::uint64_t>(detail::iters_per_us() * static_cast<double>(ns) / 1000.0);
  volatile std::uint64_t sink = detail::spin_iterations(iters);
  (void)sink;
}

}  // namespace psmr::util
