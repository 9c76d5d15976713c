// Workload generation for the evaluation scenarios (§VII-A):
//   * contention-free workloads (Fig. 4): every command touches a distinct
//     key, so no two batches ever conflict;
//   * conflict-prone workloads (Fig. 5): a configurable fraction of batches
//     deliberately reuses a key recently issued by ANOTHER proxy, creating
//     a real dependency with a batch likely still pending in the graph;
//   * optional Zipf-skewed and read-mixed variants (beyond the paper, for
//     the ablation benches).
//
// Conflicts must be drawn across proxies: a proxy's own batches never
// coexist in the dependency graph (the closed loop waits for one batch
// before sending the next), so same-proxy key reuse would create no edges.
// RecentKeyPool is the shared cross-proxy pool of recently issued keys.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "smr/command.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace psmr::workload {

/// Shared ring of recently issued keys, sampled to manufacture conflicts.
class RecentKeyPool {
 public:
  explicit RecentKeyPool(std::size_t capacity = 4096) : ring_(capacity) {}

  void add(std::span<const smr::Key> keys) {
    std::lock_guard lk(mu_);
    for (smr::Key k : keys) {
      ring_[pos_ % ring_.size()] = k;
      ++pos_;
    }
  }

  std::optional<smr::Key> sample(util::Xoshiro256& rng) const {
    std::lock_guard lk(mu_);
    const std::size_t n = pos_ < ring_.size() ? pos_ : ring_.size();
    if (n == 0) return std::nullopt;
    return ring_[rng.next_below(n)];
  }

 private:
  mutable std::mutex mu_;
  std::vector<smr::Key> ring_;
  std::size_t pos_ = 0;
};

enum class KeyDistribution : std::uint8_t { kUniform, kZipf };

struct GeneratorConfig {
  /// Number of distinct keys (the paper uses 10^9 for Table I).
  std::uint64_t key_space = 1'000'000'000;
  KeyDistribution distribution = KeyDistribution::kUniform;
  double zipf_theta = 0.99;
  /// Fraction of READ commands; the paper's throughput workloads are
  /// updates ("put"), i.e. 0.
  double read_fraction = 0.0;
  /// Probability that a batch contains a key drawn from the recent pool —
  /// the "x% of conflicts" knob of Fig. 5.
  double conflict_rate = 0.0;
  /// Contention-free mode (Fig. 4): keys come from a per-generator counter
  /// over a disjoint range, so no key is EVER reused across the run.
  bool disjoint_keys = false;
  /// Synthetic per-command execution cost (ns).
  std::uint32_t cost_ns = 0;
  /// Commands per batch — the generator needs it to place one conflicting
  /// command per selected batch.
  std::size_t batch_size = 1;
  std::uint64_t seed = 42;
};

/// Per-proxy command source. NOT thread-safe: each proxy owns one.
class Generator {
 public:
  /// `proxy_index` picks the disjoint key range; `pool` may be null when
  /// conflict_rate is 0.
  Generator(GeneratorConfig cfg, std::uint64_t proxy_index, RecentKeyPool* pool);

  /// Produces the next command; called batch_size times per batch by the
  /// proxy (client_id/sequence are overwritten by the proxy).
  smr::Command next(std::uint64_t client_id, std::uint64_t seq);

  std::uint64_t conflicting_batches() const noexcept { return conflict_batches_; }
  std::uint64_t total_batches() const noexcept { return batches_started_; }

 private:
  void begin_batch();
  smr::Key fresh_key();

  GeneratorConfig cfg_;
  RecentKeyPool* pool_;
  util::Xoshiro256 rng_;
  util::ZipfGenerator zipf_;
  std::uint64_t next_disjoint_;
  std::size_t in_batch_ = 0;         // position within the current batch
  std::size_t conflict_slot_ = ~0u;  // command index to receive a pool key
  std::vector<smr::Key> batch_keys_;
  std::uint64_t batches_started_ = 0;
  std::uint64_t conflict_batches_ = 0;
};

}  // namespace psmr::workload
