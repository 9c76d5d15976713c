// Per-client session table: the exactly-once execution filter (the standard
// SMR "RIFL"/session trick, cf. P-SMR and the recovery-oriented designs in
// Alchieri et al.).
//
// Commands carry (client_id, sequence). The replica consults the table
// before executing a command:
//   * never executed            -> execute, then record. Out-of-order FIRST
//     deliveries are fine: execution state is a compacting window (every
//     seq <= floor, plus a set above the floor), not a bare high-water
//     mark, so parallel workers finishing a client's independent commands
//     out of order never mis-classify a fresh command as old.
//   * already executed, equal to the LATEST finished sequence ->
//     retransmitted or network-duplicated delivery; RE-SEND the cached
//     response instead of re-executing (linearizability under retries: the
//     effect is applied once, the answer is replayed).
//   * already executed, older  -> superseded straggler; drop (its response
//     cache has been evicted — only the latest response per client is
//     kept, which is the only one a closed-loop client can be waiting on).
//   * currently executing (a duplicate racing its twin on another worker —
//     possible only for non-conflicting, i.e. read-only, batches)
//     -> drop; the twin's response serves the client.
//
// The execute/skip decision depends only on the set of already-executed
// sequences — identical at every replica for identical delivery prefixes —
// so dedup never diverges replica state.
//
// Commands with sequence == 0 are untracked (benchmarks and legacy tests
// that never retransmit) and bypass the table entirely.
//
// The table is part of the replicated state: it must be captured in
// snapshots and restored before replaying the log suffix, otherwise a
// recovering replica would re-execute a command an established replica
// already deduplicated (state divergence) — see serialize()/deserialize().
//
// Thread-safety: striped locks, same pattern as the KV store. The scheduler
// guarantees duplicate batches that WRITE are serialized (they conflict);
// stripes arbitrate the remaining read-only races and cross-client sharing.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "smr/command.hpp"

namespace psmr::smr {

class SessionTable {
 public:
  /// `stripes` must be a power of two.
  explicit SessionTable(std::size_t stripes = 64);

  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  enum class Gate : std::uint8_t {
    kExecute = 0,    // fresh command: caller must execute then finish()
    kDuplicate = 1,  // already executed: *cached holds the response to re-send
    kInFlight = 2,   // a twin is executing right now: emit nothing
    kStale = 3,      // executed earlier, response evicted: emit nothing
  };

  /// Claims (client_id, sequence) for execution. On kExecute the slot is
  /// marked in-flight and the caller MUST call finish() exactly once (even
  /// for failed executions — record the error response). On kDuplicate,
  /// *cached is filled with the previously recorded response.
  Gate begin(std::uint64_t client_id, std::uint64_t sequence, Response* cached);

  /// Records the outcome of an execution claimed by begin(). The response
  /// becomes the cached reply for retransmissions of this sequence.
  void finish(const Response& response);

  /// Non-claiming lookup: kDuplicate (with *cached filled) or kStale if
  /// (client_id, sequence) was already finished, kExecute if it still needs
  /// execution. Never marks anything in-flight — used by the replica's
  /// delivery fast path to drop fully-duplicate batches before they enter
  /// the dependency graph.
  Gate peek(std::uint64_t client_id, std::uint64_t sequence, Response* cached) const;

  /// Number of clients with at least one executed command.
  std::size_t size() const;

  /// Retransmissions answered from the cache (begin() -> kDuplicate).
  std::uint64_t duplicates_filtered() const;

  /// Order-insensitive digest of every client's executed-window and cached
  /// response — cheap cross-replica equality witness for tests.
  std::uint64_t digest() const;

  /// Serializes the table (sorted by client id) for state transfer. Callers
  /// must quiesce execution first — in a replica the checkpoint barrier
  /// does — or an in-flight claim would be lost. Takes one stripe lock at a
  /// time and reads the gathered entries after releasing it, which is safe
  /// only because nothing writes the table while execution is quiesced.
  std::vector<std::uint8_t> serialize() const;

  /// Replaces the table with a snapshot produced by serialize(). Returns
  /// false (leaving the table empty) on malformed input.
  bool deserialize(const std::vector<std::uint8_t>& bytes);

  void clear();

 private:
  struct Entry {
    // Executed set = { s : s <= floor } ∪ above. `above` holds out-of-order
    // completions and compacts into `floor` as the gap closes; FIFO clients
    // keep it empty (O(1) per command).
    std::uint64_t floor = 0;
    std::set<std::uint64_t> above;
    std::uint64_t in_flight = 0;   // claimed but not finished (0 = none)
    std::uint64_t last_seq = 0;    // highest finished sequence
    Response last_response{};      // response cached for last_seq
    bool executed(std::uint64_t s) const {
      return s <= floor || above.count(s) != 0;
    }
  };
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, Entry> clients;
  };

  Stripe& stripe_for(std::uint64_t client_id) const;

  std::size_t mask_;
  mutable std::vector<Stripe> stripes_;
  mutable std::atomic<std::uint64_t> duplicates_filtered_{0};
};

}  // namespace psmr::smr
