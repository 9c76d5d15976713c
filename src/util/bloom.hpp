// Bloom filters over 64-bit keys.
//
// The paper (§VI-B) restricts the batch bitmap to a Bloom filter with a
// SINGLE hash function: conflicts are detected by intersecting two filters,
// not by membership queries, and with k > 1 hash functions a single shared
// bit between unrelated keys would already be likelier, raising the false
// positive rate. `KeyBloom` defaults to k = 1 accordingly; k > 1 is
// supported so the ablation benches can demonstrate exactly that effect.
#pragma once

#include <cstdint>
#include <span>

#include "util/bitmap.hpp"
#include "util/hash.hpp"

namespace psmr::util {

class KeyBloom {
 public:
  KeyBloom() = default;

  /// `bits`: filter size m in bits. `hashes`: number of hash functions k
  /// (1 for the paper's scheme). `seed`: shared hash seed — must be equal
  /// at every replica/proxy or conflict detection loses determinism.
  explicit KeyBloom(std::size_t bits, unsigned hashes = 1, std::uint64_t seed = 0)
      : bitmap_(bits), hashes_(hashes), seed_(seed) {
    PSMR_CHECK(bits > 0);
    PSMR_CHECK(hashes >= 1);
  }

  void add(std::uint64_t key) {
    for (unsigned h = 0; h < hashes_; ++h) {
      bitmap_.set(bit_index(key, h));
    }
  }

  void add_all(std::span<const std::uint64_t> keys) {
    for (std::uint64_t k : keys) add(k);
  }

  /// Membership query: false means definitely absent; true means possibly
  /// present. Not used by the scheduler (which intersects filters), but
  /// exposed for tests and general use.
  bool may_contain(std::uint64_t key) const {
    for (unsigned h = 0; h < hashes_; ++h) {
      if (!bitmap_.test(bit_index(key, h))) return false;
    }
    return true;
  }

  /// Filter intersection — the batch-conflict primitive. Sound (no false
  /// negatives) only when both filters were built with the same seed and
  /// the same k; with k == 1 the false positive rate matches the closed
  /// form in sim/analytic.hpp.
  bool intersects(const KeyBloom& other) const {
    return bitmap_.intersects(other.bitmap_);
  }

  void clear() { bitmap_.clear(); }

  std::size_t size_bits() const noexcept { return bitmap_.size_bits(); }
  std::uint64_t seed() const noexcept { return seed_; }
  std::size_t bits_set() const noexcept { return bitmap_.count(); }
  const Bitmap& bitmap() const noexcept { return bitmap_; }
  Bitmap& mutable_bitmap() noexcept { return bitmap_; }

  /// Expected false-positive probability of a membership query given n
  /// inserted keys: (1 - e^{-kn/m})^k.
  static double query_fp_rate(std::size_t bits, unsigned hashes, std::size_t n_keys);

  std::size_t bit_index(std::uint64_t key, unsigned h) const {
    return static_cast<std::size_t>(
        reduce_range(mix64(key, seed_ + h), bitmap_.size_bits()));
  }

 private:
  Bitmap bitmap_;
  unsigned hashes_ = 1;
  std::uint64_t seed_ = 0;
};

}  // namespace psmr::util
