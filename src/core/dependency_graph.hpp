// The abridged dependency graph (paper §V, §VI-A).
//
// Vertices are command batches; there is an edge Bj -> Bi iff Bj was
// delivered before Bi and the configured conflict detector reports a
// conflict between them — then Bj must execute before Bi. The structure
// mirrors the paper's implementation: an ordered node list (delivery order
// <B), per-node forward dependency set `deps`, a backward-dependency
// account (here a counter — equivalent to the paper's bDeps set, which only
// exists "to speed the process of removing edges"), and a taken/notTaken
// status so a batch under execution stays visible to conflict detection.
//
// On top of Algorithm 1, the graph can maintain an INVERTED INDEX over
// conflict positions (IndexMode below): an aggregate bitmap —
// the OR of every resident batch's positions, kept exact by using the
// posting lists as per-bit refcounts — and a position -> posting-list map.
// An incoming batch whose positions miss the aggregate is provably
// conflict-free against the whole graph and skips all pairwise tests; when
// the aggregate intersects, only batches sharing a position are tested.
// Both paths add the identical edge set (two batches can only conflict if
// they share a position), so determinism across replicas is untouched.
//
// The index is not free: every insert adds, and every remove erases, one
// posting per position (~200 per paper-sized batch), all under the
// scheduler monitor. The default, kAuto, therefore sizes itself to the
// graph: it scans while few batches are resident and builds the index only
// once residency exceeds kIndexActivateAbove, dropping it again when
// residency drains to kIndexDeactivateAtOrBelow (DESIGN.md §4). Every
// scheduler runs kAuto; kScan and kIndexed exist for the paper's cost model
// (sim/exec_sim), the insert-cost sweep behind the thresholds, and the
// property tests that prove all three build identical graphs.
//
// NOT thread-safe: the scheduler serializes all access through its monitor,
// exactly as Algorithm 1 prescribes ("inserting, getting the next batch,
// and removing a batch are performed in mutual exclusion"). The only
// exception is prepare(), which is const, touches no graph state, and is
// designed to run outside the monitor.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/conflict.hpp"
#include "obs/trace.hpp"
#include "smr/batch.hpp"
#include "stats/meter.hpp"
#include "util/bitmap.hpp"

namespace psmr::core {

/// How insert finds the resident batches an incoming batch must be
/// pairwise-tested against. It never changes which edges are added, so
/// every setting yields the identical graph for the same delivery order.
enum class IndexMode : std::uint8_t {
  /// Pairwise test against every resident batch — Algorithm 1 lines 18–20
  /// verbatim. O(graph size) tests per insert.
  kScan = 0,
  /// Aggregate bitmap + bit→posting-list inverted index over conflict
  /// positions (hashed keys, or digest bits). A probe that misses the
  /// aggregate skips all pairwise tests in one pass; otherwise only the
  /// batches sharing a set position are tested. No false negatives: two
  /// batches can only conflict if they share a position.
  kIndexed = 1,
  /// kScan while the graph is small, kIndexed once it grows past the
  /// measured crossover (kIndexActivateAbove, with hysteresis on the way
  /// down).
  kAuto = 2,
};

const char* to_string(IndexMode m) noexcept;

class DependencyGraph {
 public:
  struct Node {
    smr::BatchPtr batch;
    /// Forward edges: nodes that depend on this one (the paper's `deps`).
    std::vector<Node*> deps;
    /// Number of unresolved backward dependencies (|bDeps| still in the
    /// graph). 0 means the batch is free to execute.
    std::size_t pending_bdeps = 0;
    /// status ∈ {taken, notTaken} (Algorithm 1 line 21 / 36).
    bool taken = false;
    /// Delivery sequence — position in <B.
    std::uint64_t seq = 0;
    /// Monotonic timestamp of insertion (scheduling-delay accounting).
    std::uint64_t inserted_at_ns = 0;

   private:
    friend class DependencyGraph;
    std::list<Node>::iterator self;
    /// Distinct index positions this batch occupies (hashed keys for the
    /// keys mode, digest bit positions for the bitmap mode). Kept while the
    /// index is merely dormant (kAuto on a small graph) so it can be built
    /// from the residents; empty under kScan.
    std::vector<std::uint32_t> index_positions;
    /// Stamp of the last probe that already tested this node — dedups
    /// candidates reached through several shared positions.
    std::uint64_t probe_stamp = 0;
  };

  /// Probe metadata for one batch, computable OUTSIDE the scheduler's
  /// monitor (prepare() is const and touches no mutable graph state). The
  /// scheduler prepares the probe before taking its lock so the serialized
  /// section only pays for the index lookup and the candidate tests.
  struct Prepared {
    smr::BatchPtr batch;
    /// Distinct index positions (sorted); empty under kScan.
    std::vector<std::uint32_t> positions;
  };

  struct IndexStats {
    /// kAuto size transitions: index built from the residents / dropped.
    std::uint64_t activations = 0;
    std::uint64_t deactivations = 0;
    /// Inserts performed while the index was active.
    std::uint64_t probes = 0;
    /// Probes whose positions missed the aggregate bitmap entirely — zero
    /// pairwise tests instead of `graph size` of them.
    std::uint64_t fast_path_skips = 0;
    /// Pairwise tests routed through posting lists (the candidate set).
    std::uint64_t candidate_tests = 0;
  };

  /// kAuto's size rule, from the insert + take + remove cycle sweep in
  /// BENCH_scheduler.json (`graph_insert`, 4-CPU x86-64 host, Release). With
  /// the paper's 200-command batches over a 1,024,000-bit digest, the scan
  /// cycle costs ~4.5 us per resident batch and the indexed cycle a flat
  /// ~45-55 us, half of it erasing postings on remove: they cross at ~9-10
  /// residents. Keys-nested batches of 16 commands (the e2e zipf and relay
  /// workloads) cross at ~11. The index is built when an insert finds MORE
  /// than kIndexActivateAbove batches resident and dropped when a removal
  /// leaves kIndexDeactivateAtOrBelow or fewer; the gap keeps a graph
  /// hovering near the crossover from rebuilding on every batch.
  static constexpr std::size_t kIndexActivateAbove = 8;
  static constexpr std::size_t kIndexDeactivateAtOrBelow = 4;

  explicit DependencyGraph(ConflictMode mode, IndexMode index = IndexMode::kAuto);

  DependencyGraph(const DependencyGraph&) = delete;
  DependencyGraph& operator=(const DependencyGraph&) = delete;

  /// Computes the probe positions for a batch under this graph's conflict
  /// and index configuration. Pure: safe to call concurrently with graph
  /// mutation (it reads only the immutable configuration and the batch).
  /// In kBitmap mode the batch must carry its digest; input from outside
  /// the process is checked before it gets here (smr::Replica::deliver).
  Prepared prepare(smr::BatchPtr batch) const;

  /// dgInsertBatch (lines 17–22): compares the incoming batch against every
  /// batch currently in the graph (pending AND taken) that can conflict
  /// with it, adding dependency edges from each conflicting one. The batch
  /// must already carry its delivery sequence number, strictly increasing
  /// across calls.
  void insert(Prepared&& probe);
  void insert(smr::BatchPtr batch) { insert(prepare(std::move(batch))); }

  /// dgGetBatch (lines 32–37): returns the OLDEST free (in-degree 0,
  /// notTaken) node, marking it taken; nullptr when no batch is free.
  Node* take_oldest_free();

  /// Checkpoint-barrier variant of take_oldest_free: only considers free
  /// nodes with delivery sequence <= max_seq, so a quiesce barrier can let
  /// the prefix drain while holding back everything newer. Because the
  /// ready set is ordered by sequence, this is the same O(log n) pop with
  /// one extra comparison. take_oldest_free() == take_oldest_free_leq(max).
  Node* take_oldest_free_leq(std::uint64_t max_seq);

  /// Delivery sequence of the oldest free node, or UINT64_MAX when nothing
  /// is free — lets a barrier-gated scheduler test takeability in a wait
  /// predicate without popping.
  std::uint64_t min_free_seq() const noexcept;

  /// Number of resident nodes (free, blocked, or taken) with delivery
  /// sequence <= seq. nodes_ is kept in <B order, so the walk stops at the
  /// first newer node — O(answer). The quiesce barrier polls this for 0.
  std::size_t resident_leq(std::uint64_t seq) const noexcept;

  /// dgRemoveBatch (lines 38–42): removes a previously taken node, erasing
  /// its outgoing edges; newly freed successors become available to
  /// take_oldest_free. Returns how many successors became free (the
  /// scheduler uses it to decide how many workers to wake).
  std::size_t remove(Node* node);

  std::size_t size() const noexcept { return nodes_.size(); }
  bool empty() const noexcept { return nodes_.empty(); }
  std::size_t num_free() const noexcept { return ready_.size(); }
  std::size_t num_edges() const noexcept { return num_edges_; }
  /// Batches currently taken (under execution). The scheduler's degraded
  /// sequential mode gates take_oldest_free on this being zero.
  std::size_t num_taken() const noexcept { return num_taken_; }

  const ConflictStats& conflict_stats() const noexcept { return detector_.stats(); }
  ConflictMode mode() const noexcept { return detector_.mode(); }

  /// Whether the index is currently maintained (kAuto scans small graphs).
  bool index_active() const noexcept { return index_active_; }
  const IndexStats& index_stats() const noexcept { return index_stats_; }

  /// Average graph size observed at insertion time — the quantity the paper
  /// reports per configuration (§VII-D) and feeds into Table I.
  const stats::RunningStat& size_at_insert() const noexcept { return size_at_insert_; }

  /// Bench/test support: removes the most recently inserted batch whatever
  /// its state (free, blocked by predecessors, or taken), detaching any
  /// incoming edges. O(graph size). Lets microbenchmarks cycle a probe
  /// batch through a fixed pending set without executing the pending set.
  void remove_newest();

  /// All current edges as (from seq, to seq) pairs, sorted — test support
  /// for comparing graphs built under different index modes.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges() const;

  /// Graphviz rendering of the current graph (examples / debugging).
  std::string to_dot() const;

  /// Attaches a lifecycle tracer; the graph stamps kInserted / kReady /
  /// kTaken / kRemoved as batches move through it (kDelivered and kExecuted
  /// belong to the scheduler). The tracer must outlive the graph; nullptr
  /// detaches. Calls happen under the owner's serialization, like every
  /// other mutation.
  void set_tracer(obs::BatchTracer* tracer) noexcept { tracer_ = tracer; }

  /// Test hook: walks the graph verifying acyclicity, that every edge
  /// points from an older to a newer batch, that the inverted index
  /// (posting lists + aggregate bitmap) exactly mirrors the resident
  /// batches, and that kAuto's index state agrees with its size rule.
  /// Aborts on violation.
  void check_invariants() const;

 private:
  /// Distinct, sorted index positions of a batch.
  void compute_positions(const smr::Batch& batch, std::vector<std::uint32_t>& out) const;

  /// True while nodes carry their positions: any index mode but kScan.
  bool tracks_positions() const noexcept { return index_mode_ != IndexMode::kScan; }

  Node& acquire_node();
  void release_node(Node* node);
  void ensure_aggregate_bits(const smr::Batch& batch);
  void index_insert(Node& node);
  void index_erase(Node& node);
  /// Takes a leaving node out of the index, or drops the whole index when
  /// kAuto's size rule says the graph left behind is small enough to scan.
  void unindex_leaving(Node& node);
  void activate_index();
  void clear_index();

  ConflictDetector detector_;
  IndexMode index_mode_;
  bool index_active_;
  std::list<Node> nodes_;                 // the paper's nodeList, in <B order
  std::list<Node> pool_;                  // recycled nodes (allocation pooling)
  std::map<std::uint64_t, Node*> ready_;  // free & notTaken, keyed by seq
  std::size_t num_edges_ = 0;
  std::size_t num_taken_ = 0;
  std::uint64_t last_seq_ = 0;
  stats::RunningStat size_at_insert_;

  // Inverted index: aggregate bitmap (OR of all resident batches' positions,
  // kept exact — a bit clears when its posting list empties) + posting
  // lists. postings_ entries are never empty.
  util::Bitmap aggregate_;
  std::unordered_map<std::uint32_t, std::vector<Node*>> postings_;
  std::uint64_t probe_stamp_ = 0;
  IndexStats index_stats_;
  obs::BatchTracer* tracer_ = nullptr;
};

}  // namespace psmr::core
