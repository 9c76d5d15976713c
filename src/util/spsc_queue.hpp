// Bounded wait-free single-producer single-consumer ring buffer.
//
// No component uses it at present; it stays, with its tests, for a channel
// with exactly one producer and one consumer. Capacity rounds up to a power
// of two; one slot is sacrificed to distinguish full from empty.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>

namespace psmr::util {

template <typename T>
class SpscQueue {
 public:
  explicit SpscQueue(std::size_t capacity)
      : capacity_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity)),
        mask_(capacity_ - 1),
        slots_(std::make_unique<T[]>(capacity_)) {}

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  bool try_push(T value) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t next = head + 1;
    if (next - tail_.load(std::memory_order_acquire) > capacity_ - 1) {
      return false;  // full
    }
    slots_[head & mask_] = std::move(value);
    head_.store(next, std::memory_order_release);
    return true;
  }

  std::optional<T> try_pop() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == head_.load(std::memory_order_acquire)) {
      return std::nullopt;  // empty
    }
    std::optional<T> v(std::move(slots_[tail & mask_]));
    tail_.store(tail + 1, std::memory_order_release);
    return v;
  }

  std::size_t capacity() const noexcept { return capacity_ - 1; }

  std::size_t approx_size() const noexcept {
    return head_.load(std::memory_order_relaxed) - tail_.load(std::memory_order_relaxed);
  }

 private:
  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<T[]> slots_;
  alignas(64) std::atomic<std::size_t> head_{0};
  alignas(64) std::atomic<std::size_t> tail_{0};
};

}  // namespace psmr::util
