// The benchmark's named workloads and their seeded command streams.
//
// Every workload is CLOSED LOOP: PSMR clients sit behind proxies that each
// wait for the replies of their whole batch before drawing the next one
// (paper §VI), so offered load is set by the proxy count, not by a rate.
// Each entry says why it exists and which layers it bypasses; README.md in
// this directory carries the same text for readers of the results.
//
// Working sets are bounded and preloaded: every key a workload can touch is
// inserted before the stack starts, so store size (and therefore kv.exec_ns
// and peak RSS) does not drift with run length.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/conflict.hpp"
#include "kvstore/kvstore.hpp"
#include "smr/command.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace perfbench {

enum class Ordering { kLocal, kPaxosRelay };
enum class KeyPattern { kDisjointCycle, kZipf };

struct WorkloadSpec {
  std::string name;
  std::string why;
  std::string bypasses;
  unsigned proxies = 4;
  /// Simulated clients per proxy (also the client_id -> proxy divisor).
  std::size_t clients_per_proxy = 1024;
  std::size_t batch_size = 1;
  bool use_bitmap = false;
  psmr::core::ConflictMode mode = psmr::core::ConflictMode::kKeysNested;
  unsigned workers = 1;
  Ordering ordering = Ordering::kLocal;
  KeyPattern keys = KeyPattern::kDisjointCycle;
  /// kDisjointCycle: size of each proxy's private key range.
  std::uint64_t keys_per_proxy = 8192;
  /// kZipf: universe and skew.
  std::uint64_t zipf_keys = 100000;
  double zipf_theta = 0.99;
  /// Share of kRead commands; the rest are kUpdate.
  double read_fraction = 0.0;
  /// Synthetic service time per command (KvService busy work).
  std::uint32_t cost_ns = 0;
  /// Replica checkpoint interval in delivered sequences (0 = off).
  std::uint64_t checkpoint_interval = 0;
};

inline const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    {
      WorkloadSpec w;
      w.name = "fig4-bitmap";
      w.why =
          "the paper's headline configuration: 200-command batches with a "
          "1,024,000-bit Bloom digest, so time goes to formation, digest, "
          "encode, decode + rebuild, sequencer fan-out, graph insert and "
          "response routing";
      w.bypasses = "consensus messaging, dependencies, service time, checkpoints";
      w.batch_size = 200;
      w.use_bitmap = true;
      w.mode = psmr::core::ConflictMode::kBitmap;
      w.workers = 4;
      w.ordering = Ordering::kLocal;
      w.keys = KeyPattern::kDisjointCycle;
      v.push_back(w);
    }
    {
      WorkloadSpec w;
      w.name = "paxos-relay";
      w.why =
          "the multi-process ordering path in one process: Multi-Paxos (3 "
          "acceptors, 2 proposers) behind the socket relay over loopback TCP, "
          "so per-batch ordering, message and transport cost dominate";
      w.bypasses = "bitmap digests, dependencies, service time, checkpoints";
      w.batch_size = 16;
      w.mode = psmr::core::ConflictMode::kKeysNested;
      w.workers = 2;
      w.ordering = Ordering::kPaxosRelay;
      w.keys = KeyPattern::kDisjointCycle;
      v.push_back(w);
    }
    {
      WorkloadSpec w;
      w.name = "zipf-rw-ckpt";
      w.why =
          "the contention workload: Zipf 0.99 over 100,000 keys, 50% reads, "
          "2 us per command and a checkpoint every 1000 sequences, so real "
          "read/write dependencies, service time and the quiesce barrier "
          "are on the path";
      w.bypasses = "bitmap digests, consensus messaging, transport";
      w.batch_size = 16;
      w.mode = psmr::core::ConflictMode::kKeysNested;
      w.workers = 4;
      w.ordering = Ordering::kLocal;
      w.keys = KeyPattern::kZipf;
      w.read_fraction = 0.5;
      w.cost_ns = 2000;
      w.checkpoint_interval = 1000;
      v.push_back(w);
    }
    return v;
  }();
  return specs;
}

inline const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

/// Initial value of `key`: a pure function of (seed, key), identical for
/// the replica's store and the oracle's.
inline psmr::smr::Value initial_value(std::uint64_t seed, psmr::smr::Key key) {
  return psmr::util::mix64(key, seed);
}

/// Inserts every key the workload can touch.
inline void preload(const WorkloadSpec& w, std::uint64_t seed, psmr::kv::KvStore& store) {
  const std::uint64_t n = w.keys == KeyPattern::kZipf
                              ? w.zipf_keys
                              : w.keys_per_proxy * w.proxies;
  for (psmr::smr::Key k = 0; k < n; ++k) store.update(k, initial_value(seed, k));
}

/// One proxy's command stream. Called from that proxy's loop thread only.
class CommandGen {
 public:
  CommandGen(const WorkloadSpec& w, std::uint64_t seed, unsigned proxy)
      : w_(w),
        proxy_(proxy),
        rng_(psmr::util::mix64(proxy + 1, seed)),
        zipf_(w.zipf_keys, w.zipf_theta),
        cursor_(rng_.next_below(w.keys_per_proxy)) {}

  psmr::smr::Command next() {
    psmr::smr::Command c;
    if (w_.keys == KeyPattern::kZipf) {
      c.key = zipf_(rng_);
    } else {
      // Each proxy cycles its own range: contention-free and bounded.
      c.key = proxy_ * w_.keys_per_proxy + cursor_;
      cursor_ = cursor_ + 1 == w_.keys_per_proxy ? 0 : cursor_ + 1;
    }
    c.type = w_.read_fraction > 0.0 && rng_.next_bool(w_.read_fraction)
                 ? psmr::smr::OpType::kRead
                 : psmr::smr::OpType::kUpdate;
    c.value = rng_();
    c.cost_ns = w_.cost_ns;
    return c;
  }

 private:
  const WorkloadSpec& w_;
  std::uint64_t proxy_;
  psmr::util::Xoshiro256 rng_;
  psmr::util::ZipfGenerator zipf_;
  std::uint64_t cursor_;
};

}  // namespace perfbench
