// Command batches and their conflict-detection digests.
//
// The paper's scheduler (§V-A) handles BATCHES of commands: the client
// proxy groups commands, optionally attaches a 1-hash Bloom bitmap encoding
// every key the batch touches, and broadcasts the batch as one request.
// Batches are immutable once broadcast; the scheduler only reads them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "smr/command.hpp"
#include "util/bloom.hpp"

namespace psmr::smr {

/// Configuration for the bitmap digest (paper §V "Efficient batch conflict
/// detection" / §VI-B). The same values must be used by every proxy and
/// replica — a size or seed mismatch would break the no-false-negative
/// guarantee.
struct BitmapConfig {
  /// m, number of bits. The paper evaluates 102400 and 1024000 (Table I).
  /// Every key is hashed once (k = 1): with intersection-based detection
  /// more hashes only inflate the false-positive rate (§VI-B).
  std::size_t bits = 1024000;
  std::uint64_t seed = 0;
};

class Batch {
 public:
  Batch() = default;
  explicit Batch(std::vector<Command> commands) : commands_(std::move(commands)) {}

  /// Delivery sequence number (position in the atomic-broadcast total
  /// order <B). Assigned at delivery; 0 means "not yet delivered".
  std::uint64_t sequence() const noexcept { return sequence_; }
  void set_sequence(std::uint64_t s) noexcept { sequence_ = s; }

  /// Identifier of the proxy that broadcast this batch (response routing).
  std::uint64_t proxy_id() const noexcept { return proxy_id_; }
  void set_proxy_id(std::uint64_t id) noexcept { proxy_id_ = id; }

  /// Send attempt (1 = first broadcast, >1 = proxy retransmission after a
  /// response deadline). Observability only: the commands — and therefore
  /// the (client_id, sequence) dedup identity — are those of attempt 1.
  std::uint32_t attempt() const noexcept { return attempt_; }
  void set_attempt(std::uint32_t a) noexcept { attempt_ = a; }
  bool is_retransmission() const noexcept { return attempt_ > 1; }

  const std::vector<Command>& commands() const noexcept { return commands_; }
  std::vector<Command>& mutable_commands() noexcept { return commands_; }
  std::size_t size() const noexcept { return commands_.size(); }
  bool empty() const noexcept { return commands_.empty(); }

  /// Builds the Bloom digest from the batch's current commands. Called
  /// by the client proxy (the paper computes bitmaps client-side to
  /// offload the parallelizer, §VI). Idempotent.
  void build_bitmap(const BitmapConfig& cfg);

  bool has_bitmap() const noexcept { return bloom_.size_bits() != 0; }

  /// The digest: one bit per key the batch touches, reads and writes alike
  /// (the paper's scheme — conservative but never unsafe).
  const util::KeyBloom& bloom() const noexcept { return bloom_; }

  /// The distinct bit positions this batch sets in its digest, kept
  /// alongside the dense array so the dependency graph's inverted index
  /// can post O(batch) positions instead of scanning O(m) bits.
  const std::vector<std::uint32_t>& bitmap_positions() const noexcept { return positions_; }

 private:
  std::uint64_t sequence_ = 0;
  std::uint64_t proxy_id_ = 0;
  std::uint32_t attempt_ = 1;
  std::vector<Command> commands_;
  util::KeyBloom bloom_;
  std::vector<std::uint32_t> positions_;
};

using BatchPtr = std::shared_ptr<const Batch>;

/// Bitmap-based batch conflict test (paper lines 28–29): true iff the
/// digests intersect, computed exactly as the paper's prototype does — a
/// word-wise AND scan over the dense bit arrays, O(m/64). Sound (no false
/// negatives) when both batches were digested with the same BitmapConfig;
/// subject to false positives.
bool bitmap_conflict(const Batch& a, const Batch& b) noexcept;

/// Exact key-based batch conflict test (paper lines 30–31,
/// `cmmdKeyConflict`): nested-loop search for a pair of conflicting
/// commands, stopping at the first hit — O(Bi·Bj) comparisons in the
/// conflict-free case, exactly the cost profile the paper measures for
/// "CBASE, batch size = 100/200" without bitmaps.
bool key_conflict_nested(const Batch& a, const Batch& b) noexcept;

}  // namespace psmr::smr
