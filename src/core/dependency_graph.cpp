#include "core/dependency_graph.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/time.hpp"

namespace psmr::core {
namespace {

// Index position space for the key-based conflict modes: command keys are
// hashed into this many slots (power of two, so reduction is a mask). A
// collision only widens the candidate set — the exact detector still rules
// on every candidate pair — so this is a time/space knob, not a correctness
// one. 1M slots keep the false-candidate rate per probe position around
// 0.1% per resident batch at paper-scale graphs.
constexpr std::uint32_t kKeyIndexBits = 1u << 20;
constexpr std::uint64_t kKeyIndexSeed = 0;

// Upper bound on recycled nodes kept around. Pooling avoids a list-node
// allocation plus the deps/index_positions vector growth on every insert;
// the cap bounds the memory retained after a transient backlog drains.
constexpr std::size_t kMaxPooledNodes = 1024;

std::uint32_t key_position(std::uint64_t key) noexcept {
  return static_cast<std::uint32_t>(util::mix64(key, kKeyIndexSeed) &
                                    (kKeyIndexBits - 1));
}

}  // namespace

const char* to_string(IndexMode m) noexcept {
  switch (m) {
    case IndexMode::kScan: return "scan";
    case IndexMode::kIndexed: return "indexed";
    case IndexMode::kAuto: return "auto";
  }
  return "?";
}

DependencyGraph::DependencyGraph(ConflictMode mode, IndexMode index)
    : detector_(mode),
      index_mode_(index),
      index_active_(index == IndexMode::kIndexed) {}

void DependencyGraph::compute_positions(const smr::Batch& batch,
                                        std::vector<std::uint32_t>& out) const {
  out.clear();
  switch (detector_.mode()) {
    case ConflictMode::kKeysNested:
      out.reserve(batch.size());
      for (const smr::Command& c : batch.commands()) {
        out.push_back(key_position(c.key));
      }
      break;
    case ConflictMode::kBitmap:
      out.assign(batch.bitmap_positions().begin(), batch.bitmap_positions().end());
      break;
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

DependencyGraph::Prepared DependencyGraph::prepare(smr::BatchPtr batch) const {
  PSMR_CHECK(batch != nullptr);
  if (detector_.mode() == ConflictMode::kBitmap) PSMR_CHECK(batch->has_bitmap());
  Prepared p;
  // Only the immutable configuration is read here — the index state can be
  // mutated concurrently by an insert or remove on another thread, so
  // prepare() must not depend on it. kAuto computes positions even while
  // the index is dormant: the node keeps them for a later activation.
  if (tracks_positions()) compute_positions(*batch, p.positions);
  p.batch = std::move(batch);
  return p;
}

DependencyGraph::Node& DependencyGraph::acquire_node() {
  if (!pool_.empty()) {
    nodes_.splice(nodes_.end(), pool_, std::prev(pool_.end()));
  } else {
    nodes_.emplace_back();
  }
  Node& node = nodes_.back();
  node.self = std::prev(nodes_.end());
  return node;
}

void DependencyGraph::release_node(Node* node) {
  node->batch.reset();
  node->deps.clear();  // keeps capacity for the next occupant
  node->index_positions.clear();
  node->pending_bdeps = 0;
  node->taken = false;
  node->seq = 0;
  node->inserted_at_ns = 0;
  node->probe_stamp = 0;
  if (pool_.size() < kMaxPooledNodes) {
    pool_.splice(pool_.end(), nodes_, node->self);
  } else {
    nodes_.erase(node->self);
  }
}

void DependencyGraph::ensure_aggregate_bits(const smr::Batch& batch) {
  const std::size_t bits = detector_.mode() == ConflictMode::kBitmap
                               ? batch.bloom().bitmap().size_bits()
                               : kKeyIndexBits;
  if (aggregate_.size_bits() >= bits) return;
  util::Bitmap grown(bits);
  for (const auto& [pos, list] : postings_) {
    (void)list;
    grown.set(pos);
  }
  aggregate_ = std::move(grown);
}

void DependencyGraph::index_insert(Node& node) {
  for (std::uint32_t pos : node.index_positions) {
    postings_[pos].push_back(&node);
    aggregate_.set(pos);
  }
}

void DependencyGraph::index_erase(Node& node) {
  for (std::uint32_t pos : node.index_positions) {
    auto it = postings_.find(pos);
    PSMR_DCHECK(it != postings_.end());
    auto& list = it->second;
    auto pit = std::find(list.begin(), list.end(), &node);
    PSMR_DCHECK(pit != list.end());
    *pit = list.back();
    list.pop_back();
    // The posting list doubles as the per-bit refcount: the aggregate bit
    // clears exactly when the last resident batch using it leaves, so the
    // aggregate never goes stale and never needs a rebuild pass.
    if (list.empty()) {
      postings_.erase(it);
      aggregate_.reset(pos);
    }
  }
}

void DependencyGraph::unindex_leaving(Node& node) {
  if (!index_active_) return;
  if (index_mode_ == IndexMode::kAuto && nodes_.size() - 1 <= kIndexDeactivateAtOrBelow) {
    // Cheaper than erasing the leaver's postings one by one: the survivors'
    // postings go too, and their positions stay on the nodes.
    clear_index();
    ++index_stats_.deactivations;
  } else {
    index_erase(node);
  }
}

void DependencyGraph::activate_index() {
  for (Node& n : nodes_) {
    ensure_aggregate_bits(*n.batch);
    index_insert(n);
  }
  index_active_ = true;
  ++index_stats_.activations;
}

void DependencyGraph::clear_index() {
  // Resetting only the occupied bits keeps the aggregate's buffer for the
  // next activation at O(postings) instead of O(digest bits).
  for (const auto& [pos, list] : postings_) {
    (void)list;
    aggregate_.reset(pos);
  }
  postings_.clear();
  index_active_ = false;
}

void DependencyGraph::insert(Prepared&& probe) {
  PSMR_CHECK(probe.batch != nullptr);
  PSMR_CHECK(probe.batch->sequence() > last_seq_);  // delivery order is strictly increasing
  last_seq_ = probe.batch->sequence();

  // The paper samples the graph size the scheduler contends with; record it
  // before the new node joins.
  size_at_insert_.add(static_cast<double>(nodes_.size()));

  // kAuto's size rule: the index pays for itself only once the scan would
  // test more than kIndexActivateAbove residents. Built from the residents'
  // kept positions, before the newcomer joins.
  if (tracks_positions() && !index_active_ && nodes_.size() > kIndexActivateAbove) {
    activate_index();
  }

  Node& node = acquire_node();
  node.batch = std::move(probe.batch);
  node.seq = node.batch->sequence();
  node.inserted_at_ns = util::now_ns();
  // swap, not move: the node's old buffer leaves with the probe, so the
  // caller frees it (outside the scheduler monitor).
  if (tracks_positions()) node.index_positions.swap(probe.positions);

  if (index_active_) {
    ++index_stats_.probes;
    ensure_aggregate_bits(*node.batch);

    // Aggregate fast path: a probe with no position resident anywhere in
    // the graph conflicts with nothing — skip every pairwise test. kBitmap
    // carries a dense digest, so the check is one vectorized word-AND pass;
    // the keys mode probes its O(batch) positions.
    bool may_conflict = false;
    if (detector_.mode() == ConflictMode::kBitmap) {
      may_conflict = node.batch->bloom().bitmap().intersects(aggregate_);
    } else {
      for (std::uint32_t pos : node.index_positions) {
        if (aggregate_.test(pos)) {
          may_conflict = true;
          break;
        }
      }
    }

    if (!may_conflict) {
      ++index_stats_.fast_path_skips;
    } else {
      // Candidate set: resident batches sharing at least one position with
      // the probe. Conflicts imply a shared position (same key hashes to
      // the same slot; intersecting digests share a bit), so testing only
      // candidates adds exactly the edges the full scan would — lines
      // 18–20 with the no-false-negative guarantee intact.
      ++probe_stamp_;
      for (std::uint32_t pos : node.index_positions) {
        if (!aggregate_.test(pos)) continue;
        auto it = postings_.find(pos);
        PSMR_DCHECK(it != postings_.end());
        for (Node* cand : it->second) {
          if (cand->probe_stamp == probe_stamp_) continue;  // already tested
          cand->probe_stamp = probe_stamp_;
          ++index_stats_.candidate_tests;
          if (detector_(*cand->batch, *node.batch)) {
            cand->deps.push_back(&node);
            ++node.pending_bdeps;
            ++num_edges_;
          }
        }
      }
    }
    index_insert(node);
  } else {
    // Lines 18–20, the paper's scan: every batch already in the graph that
    // conflicts with the incoming one must be processed before it.
    for (auto it = nodes_.begin(); it != node.self; ++it) {
      if (detector_(*it->batch, *node.batch)) {
        it->deps.push_back(&node);
        ++node.pending_bdeps;
        ++num_edges_;
      }
    }
  }

  if (tracer_ != nullptr) tracer_->record(node.seq, obs::Stage::kInserted);
  if (node.pending_bdeps == 0) {
    ready_.emplace(node.seq, &node);
    if (tracer_ != nullptr) tracer_->record(node.seq, obs::Stage::kReady);
  }
}

DependencyGraph::Node* DependencyGraph::take_oldest_free() {
  return take_oldest_free_leq(std::numeric_limits<std::uint64_t>::max());
}

DependencyGraph::Node* DependencyGraph::take_oldest_free_leq(std::uint64_t max_seq) {
  if (ready_.empty()) return nullptr;
  auto it = ready_.begin();  // smallest seq = oldest (line 35)
  if (it->first > max_seq) return nullptr;  // held behind the quiesce barrier
  Node* node = it->second;
  ready_.erase(it);
  PSMR_DCHECK(!node->taken && node->pending_bdeps == 0);
  node->taken = true;  // line 36: no other thread takes it
  ++num_taken_;
  if (tracer_ != nullptr) tracer_->record(node->seq, obs::Stage::kTaken);
  return node;
}

std::uint64_t DependencyGraph::min_free_seq() const noexcept {
  return ready_.empty() ? std::numeric_limits<std::uint64_t>::max()
                        : ready_.begin()->first;
}

std::size_t DependencyGraph::resident_leq(std::uint64_t seq) const noexcept {
  std::size_t n = 0;
  for (const Node& node : nodes_) {
    if (node.seq > seq) break;  // <B order: everything after is newer too
    ++n;
  }
  return n;
}

std::size_t DependencyGraph::remove(Node* node) {
  PSMR_CHECK(node != nullptr);
  PSMR_CHECK(node->taken);
  PSMR_CHECK(node->pending_bdeps == 0);
  std::size_t freed = 0;
  // Lines 39–41: successors no longer depend on the removed batch.
  for (Node* succ : node->deps) {
    PSMR_DCHECK(succ->pending_bdeps > 0);
    if (--succ->pending_bdeps == 0 && !succ->taken) {
      ready_.emplace(succ->seq, succ);
      if (tracer_ != nullptr) tracer_->record(succ->seq, obs::Stage::kReady);
      ++freed;
    }
  }
  num_edges_ -= node->deps.size();
  --num_taken_;
  unindex_leaving(*node);
  const std::uint64_t seq = node->seq;
  release_node(node);  // line 42
  if (tracer_ != nullptr) tracer_->record(seq, obs::Stage::kRemoved);
  return freed;
}

void DependencyGraph::remove_newest() {
  PSMR_CHECK(!nodes_.empty());
  Node& last = nodes_.back();
  PSMR_CHECK(last.deps.empty());  // nothing newer can depend on it
  for (Node& n : nodes_) {
    if (&n == &last) continue;
    const auto erased = std::erase(n.deps, &last);
    num_edges_ -= erased;
  }
  ready_.erase(last.seq);
  if (last.taken) --num_taken_;
  unindex_leaving(last);
  const std::uint64_t seq = last.seq;
  release_node(&last);
  if (tracer_ != nullptr) tracer_->record(seq, obs::Stage::kRemoved);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> DependencyGraph::edges() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(num_edges_);
  for (const Node& n : nodes_) {
    for (const Node* succ : n.deps) out.emplace_back(n.seq, succ->seq);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string DependencyGraph::to_dot() const {
  std::string out = "digraph dg {\n  rankdir=LR;\n";
  for (const Node& n : nodes_) {
    out += "  b" + std::to_string(n.seq) + " [label=\"B" + std::to_string(n.seq) +
           "\\n|" + std::to_string(n.batch->size()) + " cmds|\"" +
           (n.taken ? ", style=filled, fillcolor=lightgray" : "") + "];\n";
  }
  for (const Node& n : nodes_) {
    for (const Node* succ : n.deps) {
      out += "  b" + std::to_string(n.seq) + " -> b" + std::to_string(succ->seq) + ";\n";
    }
  }
  out += "}\n";
  return out;
}

void DependencyGraph::check_invariants() const {
  // Edges must point old -> new; with that property cycles are impossible,
  // so the DAG check reduces to the order check (Proposition 1).
  std::size_t edges_seen = 0;
  std::unordered_set<const Node*> live;
  for (const Node& n : nodes_) live.insert(&n);
  for (const Node& n : nodes_) {
    for (const Node* succ : n.deps) {
      PSMR_CHECK(live.contains(succ));
      PSMR_CHECK(n.seq < succ->seq);
      ++edges_seen;
    }
  }
  PSMR_CHECK(edges_seen == num_edges_);
  // Every pending_bdeps must equal the number of live predecessors' edges
  // pointing at the node.
  std::unordered_map<const Node*, std::size_t> indeg;
  for (const Node& n : nodes_) {
    for (const Node* succ : n.deps) ++indeg[succ];
  }
  for (const Node& n : nodes_) {
    const auto it = indeg.find(&n);
    const std::size_t d = it == indeg.end() ? 0 : it->second;
    PSMR_CHECK(n.pending_bdeps == d);
    if (d == 0 && !n.taken) {
      PSMR_CHECK(ready_.contains(n.seq));
    } else {
      PSMR_CHECK(!ready_.contains(n.seq));
    }
  }
  // Non-deadlock (Proposition 3): a non-empty graph with no taken batches
  // must expose at least one free batch.
  std::size_t taken_count = 0;
  for (const Node& n : nodes_) taken_count += n.taken ? 1 : 0;
  PSMR_CHECK(taken_count == num_taken_);
  if (!nodes_.empty() && taken_count == 0) PSMR_CHECK(!ready_.empty());

  // Index state must follow the configuration: kScan never indexes,
  // kIndexed always does, and kAuto obeys its size rule (an insert into
  // more than kIndexActivateAbove residents activates, a removal down to
  // kIndexDeactivateAtOrBelow deactivates).
  switch (index_mode_) {
    case IndexMode::kScan:
      PSMR_CHECK(!index_active_);
      break;
    case IndexMode::kIndexed:
      PSMR_CHECK(index_active_);
      break;
    case IndexMode::kAuto:
      if (index_active_) {
        PSMR_CHECK(nodes_.size() > kIndexDeactivateAtOrBelow);
      } else {
        PSMR_CHECK(nodes_.size() <= kIndexActivateAbove + 1);
      }
      break;
  }
  // Every resident node carries its freshly recomputable positions while
  // they are tracked (dormant index included), and none otherwise.
  std::vector<std::uint32_t> fresh;
  for (const Node& n : nodes_) {
    if (tracks_positions()) {
      compute_positions(*n.batch, fresh);
      PSMR_CHECK(fresh == n.index_positions);
    } else {
      PSMR_CHECK(n.index_positions.empty());
    }
  }
  // Index cross-check: posting lists and the aggregate bitmap must exactly
  // mirror the resident batches' positions.
  if (index_active_) {
    std::unordered_map<std::uint32_t, std::size_t> expected;
    for (const Node& n : nodes_) {
      for (std::uint32_t pos : n.index_positions) {
        ++expected[pos];
        const auto it = postings_.find(pos);
        PSMR_CHECK(it != postings_.end());
        PSMR_CHECK(std::find(it->second.begin(), it->second.end(), &n) !=
                   it->second.end());
      }
    }
    PSMR_CHECK(postings_.size() == expected.size());
    for (const auto& [pos, list] : postings_) {
      PSMR_CHECK(!list.empty());
      const auto it = expected.find(pos);
      PSMR_CHECK(it != expected.end());
      PSMR_CHECK(list.size() == it->second);
      PSMR_CHECK(pos < aggregate_.size_bits());
      PSMR_CHECK(aggregate_.test(pos));
    }
    PSMR_CHECK(aggregate_.count() == postings_.size());
  } else {
    PSMR_CHECK(postings_.empty());
    PSMR_CHECK(aggregate_.none());
  }
}

}  // namespace psmr::core
