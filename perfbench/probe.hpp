// The benchmark's own instrumentation. Nothing here reaches into the
// program: every stamp is taken around a call into a public API —
//
//   * the Proxy's CommandSource and BroadcastFn, and the Replica's
//     ResponseSink, are wrapped where the benchmark builds them;
//   * TracedBroadcast decorates the real consensus::AtomicBroadcast, and
//     wraps every ordered-delivery callback subscribed through it;
//   * TimedService decorates the smr::Service (KvService);
//   * the Replica::deliver call is timed inside the subscribe_replica
//     callback the benchmark hands to the ConsensusAdapter.
//
// Always on (the end-to-end numbers need them): per-command draw stamps and
// first-response bookkeeping, which give latency and the error count.
// Traced reps only: one BatchStamps record per batch, kept in memory and
// written at the end of the rep. Spans of one batch are keyed by (proxy id,
// first command's sequence) above the consensus boundary — the first
// command's client id is always proxy * clients_per_proxy — and joined across
// it by a hash of the encoded payload, which both sides compute and the
// delivery side verifies (hash_mismatches counts failed joins). The time
// the probe spends hashing is recorded per batch, so stage accounting bills
// it to the probe instead of to the codec or consensus stage around it.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "consensus/group.hpp"
#include "obs/metrics.hpp"
#include "smr/batch.hpp"
#include "smr/command.hpp"
#include "util/hash.hpp"
#include "util/time.hpp"
#include "workloads.hpp"

namespace perfbench {

using psmr::util::now_ns;

/// Word-wise hash of an encoded payload (the cross-boundary span id).
inline std::uint64_t payload_hash(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = psmr::util::mix64(bytes.size());
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
  }
  for (; i < bytes.size(); ++i) h = (h ^ bytes[i]) * 0x100000001b3ULL;
  return psmr::util::mix64(h);
}

/// Stage stamps of one batch (ns, steady clock). Each field has one writer
/// thread; all are read after every thread of the rep has been joined.
struct BatchStamps {
  std::atomic<std::uint64_t> first_draw{0};      // CommandSource, first command
  std::atomic<std::uint64_t> bcast_entry{0};     // BroadcastFn entry
  std::atomic<std::uint64_t> submit_entry{0};    // AtomicBroadcast::broadcast entry, after hash
  std::atomic<std::uint64_t> submit_return{0};   // ... and return
  std::atomic<std::uint64_t> ordered{0};         // ordered callback entry, after hash
  std::atomic<std::uint64_t> deliver_entry{0};   // Replica::deliver entry
  std::atomic<std::uint64_t> deliver_return{0};  // ... and return
  std::atomic<std::uint64_t> first_exec{0};      // first Service::execute entry
  std::atomic<std::uint64_t> last_exec{0};       // last Service::execute return
  std::atomic<std::uint64_t> last_response{0};   // last first-response, sink entry
  std::atomic<std::uint64_t> kv_ns{0};           // Σ Service::execute time
  std::atomic<std::uint64_t> hash{0};            // payload hash at submit
  // Probe hashing time (ns) that falls inside the stamps above.
  std::atomic<std::uint64_t> probe_submit_ns{0};     // before submit_entry
  std::atomic<std::uint64_t> probe_in_submit_ns{0};  // inside broadcast() on its thread
  std::atomic<std::uint64_t> probe_ordered_ns{0};    // before ordered
  std::atomic<std::uint32_t> responses{0};       // first responses seen
};

/// Latency sample storage, allocated once per process (before any set-up)
/// and reused by every rep, so it adds a constant to peak RSS.
struct SampleBuffers {
  SampleBuffers(unsigned proxies, std::size_t per_proxy)
      : capacity(per_proxy), samples(proxies, std::vector<std::uint32_t>(per_proxy, 0)) {}
  std::size_t capacity;
  std::vector<std::vector<std::uint32_t>> samples;
};

class Probe {
 public:
  /// Every kSampleEvery-th client slot of a batch is sampled for latency
  /// (evenly spread over batch positions; bounds memory per second).
  static constexpr std::size_t kSampleEvery = 4;
  /// Batch records kept per proxy in a traced rep.
  static constexpr std::uint64_t kRecordCap = std::uint64_t{1} << 15;

  Probe(const WorkloadSpec& w, bool traced, SampleBuffers& buffers)
      : w_(w), traced_(traced), buffers_(buffers), proxies_(w.proxies) {
    for (ProxyState& p : proxies_) {
      p.slots = std::make_unique<Slot[]>(w.batch_size);
      if (traced_) p.records = std::make_unique<BatchStamps[]>(kRecordCap);
    }
  }

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  bool traced() const noexcept { return traced_; }

  // ---- CommandSource ----------------------------------------------------
  void on_draw(std::uint64_t client_id, std::uint64_t seq, std::uint64_t gen_ns) {
    const std::uint64_t t = now_ns();
    const std::size_t p = client_id / w_.clients_per_proxy;
    const std::size_t j = client_id % w_.clients_per_proxy;
    Slot& s = proxies_[p].slots[j];
    s.drawn_ns.store(t, std::memory_order_relaxed);
    s.seq.store(seq, std::memory_order_release);
    proxies_[p].drawn.fetch_add(1, std::memory_order_relaxed);
    if (traced_) {
      gen_ns_.add(gen_ns);
      gen_calls_.add(1);
      if (j == 0) {
        if (BatchStamps* r = record(p, seq)) r->first_draw.store(t, std::memory_order_relaxed);
      }
    }
  }

  // ---- BroadcastFn / AtomicBroadcast ------------------------------------
  void on_broadcast_entry(const psmr::smr::Batch& b) {
    const std::uint64_t t = now_ns();
    tl_proxy_ = b.proxy_id();
    tl_seq_ = b.empty() ? 0 : b.commands().front().sequence;
    if (BatchStamps* r = record(tl_proxy_, tl_seq_)) {
      r->bcast_entry.store(t, std::memory_order_relaxed);
    }
  }

  void on_submit_entry(const std::vector<std::uint8_t>& payload) {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t h = payload_hash(payload);
    const std::uint64_t t1 = now_ns();
    tl_probe_ns_ += t1 - t0;
    tl_probe_at_submit_ = tl_probe_ns_;
    if (BatchStamps* r = record(tl_proxy_, tl_seq_)) {
      r->hash.store(h, std::memory_order_relaxed);
      r->submit_entry.store(t1, std::memory_order_relaxed);
      r->probe_submit_ns.store(t1 - t0, std::memory_order_relaxed);
    }
  }

  /// An inner broadcast() may deliver synchronously (LocalBroadcast fans out
  /// on the caller's thread), so ordered-callback hashing can fall inside it.
  void on_submit_return() {
    const std::uint64_t t = now_ns();
    if (BatchStamps* r = record(tl_proxy_, tl_seq_)) {
      r->submit_return.store(t, std::memory_order_relaxed);
      r->probe_in_submit_ns.store(tl_probe_ns_ - tl_probe_at_submit_, std::memory_order_relaxed);
    }
  }

  void on_ordered(const psmr::consensus::Value& payload) {
    const std::uint64_t t0 = now_ns();
    tl_ordered_hash_ = payload ? payload_hash(*payload) : 0;
    tl_ordered_ns_ = now_ns();
    tl_ordered_probe_ns_ = tl_ordered_ns_ - t0;
    tl_probe_ns_ += tl_ordered_probe_ns_;
  }

  // ---- Replica::deliver (inside the subscribe_replica callback) ----------
  void on_deliver_entry(const psmr::smr::Batch& b) {
    const std::uint64_t t = now_ns();
    ordered_batches_.add(1);
    if (b.empty()) return;
    if (BatchStamps* r = record(b.proxy_id(), b.commands().front().sequence)) {
      r->ordered.store(tl_ordered_ns_, std::memory_order_relaxed);
      r->probe_ordered_ns.store(tl_ordered_probe_ns_, std::memory_order_relaxed);
      r->deliver_entry.store(t, std::memory_order_relaxed);
      if (r->hash.load(std::memory_order_relaxed) != tl_ordered_hash_) hash_mismatches_.add(1);
    }
  }

  void on_deliver_return(std::uint64_t proxy, std::uint64_t seq) {
    if (BatchStamps* r = record(proxy, seq)) {
      r->deliver_return.store(now_ns(), std::memory_order_relaxed);
    }
  }

  // ---- Service::execute ---------------------------------------------------
  void on_execute(const psmr::smr::Command& cmd, std::uint64_t t0, std::uint64_t t1) {
    kv_ns_.add(t1 - t0);
    kv_calls_.add(1);
    const std::size_t j = cmd.client_id % w_.clients_per_proxy;
    if (BatchStamps* r = record(cmd.client_id / w_.clients_per_proxy, cmd.sequence)) {
      // A batch's commands run in order on one worker: single writer.
      if (j == 0) r->first_exec.store(t0, std::memory_order_relaxed);
      if (j + 1 == w_.batch_size) r->last_exec.store(t1, std::memory_order_relaxed);
      r->kv_ns.store(r->kv_ns.load(std::memory_order_relaxed) + (t1 - t0),
                     std::memory_order_relaxed);
    }
  }

  // ---- ResponseSink -------------------------------------------------------
  /// Accounts a response; true iff it is the command's first response
  /// (duplicates replayed from a session cache return false).
  bool on_response(const psmr::smr::Response& r) {
    const std::size_t p = r.client_id / w_.clients_per_proxy;
    const std::size_t j = r.client_id % w_.clients_per_proxy;
    if (p >= proxies_.size() || j >= w_.batch_size) return false;
    Slot& s = proxies_[p].slots[j];
    if (s.seq.load(std::memory_order_acquire) != r.sequence) return false;
    if (s.answered_seq.exchange(r.sequence, std::memory_order_acq_rel) == r.sequence) {
      return false;
    }
    const std::uint64_t t = now_ns();
    const bool ok = r.status == psmr::smr::Status::kOk || r.status == psmr::smr::Status::kNotFound;
    (ok ? answered_ok_ : answered_bad_).add(1);
    std::uint64_t zero = 0;
    if (first_response_ns_.load(std::memory_order_relaxed) == 0) {
      first_response_ns_.compare_exchange_strong(zero, t);
    }
    if (recording_.load(std::memory_order_relaxed) && j % kSampleEvery == 0) {
      ProxyState& ps = proxies_[p];
      const std::size_t idx = ps.sample_count.fetch_add(1, std::memory_order_relaxed);
      if (idx < buffers_.capacity) {
        const std::uint64_t lat = t - s.drawn_ns.load(std::memory_order_relaxed);
        buffers_.samples[p][idx] = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(lat, std::numeric_limits<std::uint32_t>::max()));
      }
    }
    if (traced_) {
      if (BatchStamps* rec = record(p, r.sequence)) {
        if (rec->responses.fetch_add(1, std::memory_order_relaxed) + 1 == w_.batch_size) {
          rec->last_response.store(t, std::memory_order_relaxed);
        }
      }
    }
    return true;
  }

  void add_response_time(std::uint64_t ns) {
    response_ns_.add(ns);
    response_calls_.add(1);
  }

  // ---- reads ----------------------------------------------------------------
  void set_recording(bool on) { recording_.store(on, std::memory_order_relaxed); }
  std::uint64_t first_response_ns() const {
    return first_response_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t drawn() const {
    std::uint64_t n = 0;
    for (const ProxyState& p : proxies_) n += p.drawn.load(std::memory_order_relaxed);
    return n;
  }
  std::uint64_t answered_ok() const { return answered_ok_.value(); }
  std::uint64_t answered_bad() const { return answered_bad_.value(); }
  std::uint64_t ordered_batches() const { return ordered_batches_.value(); }
  std::uint64_t hash_mismatches() const { return hash_mismatches_.value(); }
  std::uint64_t gen_ns() const { return gen_ns_.value(); }
  std::uint64_t gen_calls() const { return gen_calls_.value(); }
  std::uint64_t kv_ns() const { return kv_ns_.value(); }
  std::uint64_t kv_calls() const { return kv_calls_.value(); }
  std::uint64_t response_ns() const { return response_ns_.value(); }
  std::uint64_t response_calls() const { return response_calls_.value(); }

  /// The rep's latency samples (ns), all proxies.
  std::vector<std::uint32_t> samples() const {
    std::vector<std::uint32_t> out;
    for (std::size_t p = 0; p < proxies_.size(); ++p) {
      const std::size_t n = std::min(proxies_[p].sample_count.load(), buffers_.capacity);
      out.insert(out.end(), buffers_.samples[p].begin(),
                 buffers_.samples[p].begin() + static_cast<std::ptrdiff_t>(n));
    }
    return out;
  }
  /// Samples lost to a full buffer (0 unless a window outgrows capacity).
  std::uint64_t samples_dropped() const {
    std::uint64_t n = 0;
    for (const ProxyState& p : proxies_) {
      const std::size_t c = p.sample_count.load();
      if (c > buffers_.capacity) n += c - buffers_.capacity;
    }
    return n;
  }

  /// Batch record of (proxy, first-command sequence); null when untraced or
  /// beyond the per-proxy cap.
  BatchStamps* record(std::uint64_t proxy, std::uint64_t seq) const {
    if (!traced_ || proxy >= proxies_.size() || seq >= kRecordCap) return nullptr;
    return &proxies_[proxy].records[seq];
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> drawn_ns{0};
    std::atomic<std::uint64_t> answered_seq{0};
  };
  // One cache line per proxy: `drawn` is written by the proxy thread and
  // `sample_count` by workers, so neighbouring proxies must not share lines.
  struct alignas(64) ProxyState {
    std::unique_ptr<Slot[]> slots;
    std::unique_ptr<BatchStamps[]> records;
    std::atomic<std::uint64_t> drawn{0};
    std::atomic<std::size_t> sample_count{0};
  };

  // Per-thread join state: the broadcasting thread's current batch, the
  // delivery thread's current ordered payload, and the thread's running
  // total of probe hashing time.
  static inline thread_local std::uint64_t tl_proxy_ = 0;
  static inline thread_local std::uint64_t tl_seq_ = 0;
  static inline thread_local std::uint64_t tl_ordered_ns_ = 0;
  static inline thread_local std::uint64_t tl_ordered_hash_ = 0;
  static inline thread_local std::uint64_t tl_ordered_probe_ns_ = 0;
  static inline thread_local std::uint64_t tl_probe_ns_ = 0;
  static inline thread_local std::uint64_t tl_probe_at_submit_ = 0;

  const WorkloadSpec& w_;
  const bool traced_;
  SampleBuffers& buffers_;
  std::vector<ProxyState> proxies_;
  std::atomic<bool> recording_{false};
  std::atomic<std::uint64_t> first_response_ns_{0};
  psmr::obs::Counter answered_ok_, answered_bad_, ordered_batches_, hash_mismatches_;
  psmr::obs::Counter gen_ns_, gen_calls_, kv_ns_, kv_calls_, response_ns_, response_calls_;
};

/// consensus::AtomicBroadcast decorator: times broadcast() and stamps every
/// ordered-delivery callback subscribed through it.
class TracedBroadcast final : public psmr::consensus::AtomicBroadcast {
 public:
  TracedBroadcast(psmr::consensus::AtomicBroadcast& inner, Probe& probe)
      : inner_(inner), probe_(probe) {}

  void subscribe(DeliverFn fn) override {
    inner_.subscribe([this, fn = std::move(fn)](std::uint64_t seq,
                                                psmr::consensus::Value payload) {
      probe_.on_ordered(payload);
      fn(seq, std::move(payload));
    });
  }
  void start() override { inner_.start(); }
  void stop() override { inner_.stop(); }
  void broadcast(psmr::consensus::Value payload) override {
    if (payload) probe_.on_submit_entry(*payload);
    inner_.broadcast(std::move(payload));
    probe_.on_submit_return();
  }

 private:
  psmr::consensus::AtomicBroadcast& inner_;
  Probe& probe_;
};

/// smr::Service decorator: times each execute() around the real service.
class TimedService final : public psmr::smr::Service {
 public:
  TimedService(psmr::smr::Service& inner, Probe& probe) : inner_(inner), probe_(probe) {}

  psmr::smr::Response execute(const psmr::smr::Command& cmd) override {
    const std::uint64_t t0 = now_ns();
    psmr::smr::Response r = inner_.execute(cmd);
    probe_.on_execute(cmd, t0, now_ns());
    return r;
  }

 private:
  psmr::smr::Service& inner_;
  Probe& probe_;
};

}  // namespace perfbench
