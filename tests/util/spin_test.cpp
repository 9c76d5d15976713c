#include "util/spin.hpp"

#include <gtest/gtest.h>

#include "util/time.hpp"

namespace psmr::util {
namespace {

TEST(BusyWork, ZeroIsFree) {
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < 1000; ++i) busy_work(0);
  EXPECT_LT(now_ns() - t0, 10'000'000u);  // well under 10ms for 1000 calls
}

TEST(BusyWork, BurnsRoughlyTheRequestedTime) {
  busy_work(1);  // force calibration outside the measured region
  const std::uint64_t t0 = now_ns();
  constexpr int kReps = 50;
  for (int i = 0; i < kReps; ++i) busy_work(100'000);  // 100 us each
  const double per_call_us = static_cast<double>(now_ns() - t0) / kReps / 1000.0;
  // Calibration is coarse; accept a generous band (CI machines jitter).
  EXPECT_GT(per_call_us, 30.0);
  EXPECT_LT(per_call_us, 500.0);
}

TEST(BusyWork, LongerRequestsTakeLonger) {
  busy_work(1);
  // 10x the requested work must take clearly longer (2.5x threshold). A
  // preemption or a throttled period only ever adds time to a window, so
  // each side is timed over several alternating rounds and the fastest
  // round of each is compared: one stalled window cannot flip the result.
  double short_t = 0;
  double long_t = 0;
  for (int round = 0; round < 5; ++round) {
    Stopwatch w1;
    for (int i = 0; i < 20; ++i) busy_work(50'000);
    const double s = w1.elapsed_seconds();
    Stopwatch w2;
    for (int i = 0; i < 20; ++i) busy_work(500'000);
    const double l = w2.elapsed_seconds();
    if (round == 0 || s < short_t) short_t = s;
    if (round == 0 || l < long_t) long_t = l;
  }
  EXPECT_GT(long_t, short_t * 2.5);
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch w;
  busy_work(5'000'000);  // ~5 ms
  EXPECT_GT(w.elapsed_ns(), 1'000'000u);
  EXPECT_GT(w.elapsed_seconds(), 0.0);
}

}  // namespace
}  // namespace psmr::util
