// Bounded lock-free multi-producer multi-consumer queue (Vyukov's design).
//
// No component uses it at present: the scheduler variants that fed their
// workers through it were deleted. It stays, with its tests, as the
// lock-free hand-off for a stage that needs one. Capacity is rounded up to
// a power of two. All operations are non-blocking; blocking wrappers live in
// blocking_queue.hpp.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <memory>
#include <optional>
#include <utility>

#include "util/assert.hpp"

namespace psmr::util {

template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(std::size_t capacity)
      : capacity_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity)),
        mask_(capacity_ - 1),
        cells_(std::make_unique<Cell[]>(capacity_)) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      cells_[i].sequence.store(i, std::memory_order_relaxed);
    }
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Attempts to enqueue; returns false when full.
  bool try_push(T value) {
    Cell* cell;
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->sequence.load(std::memory_order_acquire);
      const std::intptr_t diff =
          static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    cell->storage = std::move(value);
    cell->sequence.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Attempts to dequeue; returns nullopt when empty.
  std::optional<T> try_pop() {
    Cell* cell;
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->sequence.load(std::memory_order_acquire);
      const std::intptr_t diff =
          static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos + 1);
      if (diff == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return std::nullopt;  // empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    std::optional<T> result(std::move(cell->storage));
    cell->sequence.store(pos + mask_ + 1, std::memory_order_release);
    return result;
  }

  std::size_t capacity() const noexcept { return capacity_; }

  /// Approximate size; exact only when quiescent.
  std::size_t approx_size() const noexcept {
    const std::size_t e = enqueue_pos_.load(std::memory_order_relaxed);
    const std::size_t d = dequeue_pos_.load(std::memory_order_relaxed);
    return e >= d ? e - d : 0;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> sequence{0};
    T storage{};
  };

  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<Cell[]> cells_;
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
};

}  // namespace psmr::util
