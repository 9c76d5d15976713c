// In-memory key-value store — the replicated service of the evaluation
// (§VI: "commands to create, read, update and remove keys from an
// in-memory database").
//
// Concurrency: the store is sharded with striped locks. The scheduler
// already guarantees that two commands on the SAME key never run
// concurrently (they conflict), so the per-shard locks only arbitrate
// hash-table structural mutation between commands on DIFFERENT keys that
// land in the same shard — cheap and uncontended at realistic shard counts.
//
// Layout: each shard is a flat open-addressing table (linear probing,
// backward-shift deletion, power-of-two capacity) rather than a node-based
// map, so a full scan is a walk over one contiguous array. Every slot also
// carries its key's position in sorted order as of the last full sort,
// which lets serialize() write the canonical (sorted) frame in one pass
// without sorting while the key set is unchanged (DESIGN.md §12.2).
//
// Determinism: state changes are a pure function of (state, command); the
// digest() fold is order-insensitive per key so replicas that executed
// independent commands in different real-time orders still produce equal
// digests iff their final states are equal.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "smr/command.hpp"
#include "util/spin.hpp"

namespace psmr::kv {

class KvStore {
 public:
  /// `shards` must be a power of two.
  explicit KvStore(std::size_t shards = 256);

  smr::Status create(smr::Key key, smr::Value value);
  smr::Status read(smr::Key key, smr::Value& out) const;
  smr::Status update(smr::Key key, smr::Value value);
  smr::Status remove(smr::Key key);

  std::size_t size() const;

  /// Order-insensitive 64-bit digest of the full state (sum of per-entry
  /// mixes). Equal states <=> equal digests with overwhelming probability;
  /// used by tests to compare replicas cheaply.
  std::uint64_t digest() const;

  /// Full snapshot (sorted by key) — for exact state comparison in tests.
  /// Decoded from serialize(), so it shares the rank path below.
  std::vector<std::pair<smr::Key, smr::Value>> snapshot() const;

  /// Serializes the full state as the canonical "PSMRKV" v1 frame: magic,
  /// entry count, then (key, value) pairs in strictly ascending key order.
  /// A consistent capture needs a quiesced store — in a replica that is
  /// the checkpoint barrier (CheckpointManager). Called while other threads
  /// mutate the store it is still safe: each shard is read under its lock,
  /// and the frame is always sorted, duplicate-free and consistent with its
  /// count.
  ///
  /// Cost: while no key was inserted or removed since the previous call,
  /// each entry is copied straight to its cached sorted position (no sort,
  /// no intermediate buffer); otherwise the entries are gathered, sorted
  /// and the positions cached for the next call.
  std::vector<std::uint8_t> serialize() const;

  /// Replaces the entire state with a snapshot produced by serialize().
  /// The frame is fully validated (magic, entry count, strictly ascending
  /// keys, no trailing bytes) BEFORE any mutation: on malformed input this
  /// returns false and the existing state is untouched.
  bool deserialize(const std::vector<std::uint8_t>& bytes);

  void clear();

 private:
  struct Slot {
    smr::Key key = 0;
    smr::Value value = 0;
  };
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unique_ptr<Slot[]> slots;  // `capacity` slots
    /// One word per slot: 0 = empty. Otherwise 1 + the key's rank in sorted
    /// order at the last full sort, meaningful only while `ranked_epoch`
    /// equals `epoch`.
    std::unique_ptr<std::uint32_t[]> ranks;
    std::size_t capacity = 0;  // 0 or a power of two
    std::size_t used = 0;
    /// Key-set epoch: bumped by every insert of a new key, remove, clear
    /// and deserialize; updates and reads leave it alone.
    std::uint64_t epoch = 0;
    /// `epoch` as of the last sort that stored this shard's ranks.
    std::uint64_t ranked_epoch = ~std::uint64_t{0};

    Slot* find(smr::Key key, std::uint64_t hash) const;
    /// Inserts an absent key (growing first if needed); bumps `epoch`.
    void insert(smr::Key key, smr::Value value, std::uint64_t hash);
    /// Empties `slot` by backward shift; bumps `epoch`.
    void erase(Slot* slot);
    void reset();

   private:
    std::size_t home(std::uint64_t hash) const;
    void place(const Slot& slot, std::uint32_t rank, std::uint64_t hash);
    void grow();
  };

  Shard& shard_for(std::uint64_t hash) const { return shards_[hash & mask_]; }
  std::vector<std::uint8_t> serialize_ranked() const;
  std::vector<std::uint8_t> serialize_sorted() const;

  std::size_t mask_;
  mutable std::vector<Shard> shards_;
  /// Held for a whole serialize() call: calls write the cached ranks, so
  /// they run one at a time.
  mutable std::mutex rank_mu_;
  /// Entry count at the last full sort (guarded by rank_mu_).
  mutable std::size_t ranked_count_ = 0;
};

/// Adapts KvStore to the smr::Service interface, adding the synthetic
/// per-command execution cost (busy work) used to model light vs heavy
/// commands (§VII-A).
class KvService final : public smr::Service {
 public:
  explicit KvService(KvStore& store) : store_(store) {}

  smr::Response execute(const smr::Command& cmd) override {
    if (cmd.cost_ns > 0) util::busy_work(cmd.cost_ns);
    smr::Response r;
    r.client_id = cmd.client_id;
    r.sequence = cmd.sequence;
    switch (cmd.type) {
      case smr::OpType::kCreate:
        r.status = store_.create(cmd.key, cmd.value);
        break;
      case smr::OpType::kRead:
        r.status = store_.read(cmd.key, r.value);
        break;
      case smr::OpType::kUpdate:
        r.status = store_.update(cmd.key, cmd.value);
        break;
      case smr::OpType::kRemove:
        r.status = store_.remove(cmd.key);
        break;
    }
    return r;
  }

 private:
  KvStore& store_;
};

}  // namespace psmr::kv
