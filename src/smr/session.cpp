#include "smr/session.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace psmr::smr {

namespace {

constexpr std::uint32_t kMagic = 0x50534d53;  // "PSMS"

/// id, floor, last_seq, status, value, |above| — before the `above` list.
constexpr std::size_t kEntryFixedBytes = 8 + 8 + 8 + 1 + 8 + 4;

template <typename T>
std::uint8_t* put(std::uint8_t* at, T v) {
  std::memcpy(at, &v, sizeof(T));
  return at + sizeof(T);
}

template <typename T>
bool get(const std::vector<std::uint8_t>& in, std::size_t& off, T& v) {
  if (in.size() - off < sizeof(T)) return false;
  std::memcpy(&v, in.data() + off, sizeof(T));
  off += sizeof(T);
  return true;
}

}  // namespace

SessionTable::SessionTable(std::size_t stripes) : mask_(0), stripes_(std::bit_ceil(stripes)) {
  PSMR_CHECK(!stripes_.empty());
  mask_ = stripes_.size() - 1;
}

SessionTable::Stripe& SessionTable::stripe_for(std::uint64_t client_id) const {
  return stripes_[util::mix64(client_id) & mask_];
}

SessionTable::Gate SessionTable::begin(std::uint64_t client_id, std::uint64_t sequence,
                                       Response* cached) {
  PSMR_CHECK(sequence != 0);  // sequence 0 means "untracked"; callers filter
  Stripe& s = stripe_for(client_id);
  std::lock_guard lk(s.mu);
  Entry& e = s.clients[client_id];
  if (e.executed(sequence)) {
    if (sequence == e.last_seq) {
      if (cached != nullptr) *cached = e.last_response;
      duplicates_filtered_.fetch_add(1, std::memory_order_relaxed);
      return Gate::kDuplicate;
    }
    return Gate::kStale;
  }
  if (e.in_flight == sequence) return Gate::kInFlight;
  e.in_flight = sequence;
  return Gate::kExecute;
}

SessionTable::Gate SessionTable::peek(std::uint64_t client_id, std::uint64_t sequence,
                                      Response* cached) const {
  PSMR_CHECK(sequence != 0);
  Stripe& s = stripe_for(client_id);
  std::lock_guard lk(s.mu);
  const auto it = s.clients.find(client_id);
  if (it == s.clients.end() || !it->second.executed(sequence)) return Gate::kExecute;
  if (sequence == it->second.last_seq) {
    if (cached != nullptr) *cached = it->second.last_response;
    return Gate::kDuplicate;
  }
  return Gate::kStale;
}

void SessionTable::finish(const Response& response) {
  Stripe& s = stripe_for(response.client_id);
  std::lock_guard lk(s.mu);
  Entry& e = s.clients[response.client_id];
  if (e.in_flight == response.sequence) e.in_flight = 0;
  if (e.executed(response.sequence)) return;  // double finish — ignore
  if (response.sequence == e.floor + 1) {
    // In-order completion: advance the floor through any queued successors.
    ++e.floor;
    auto it = e.above.begin();
    while (it != e.above.end() && *it == e.floor + 1) {
      ++e.floor;
      it = e.above.erase(it);
    }
  } else {
    e.above.insert(response.sequence);
  }
  if (response.sequence > e.last_seq) {
    e.last_seq = response.sequence;
    e.last_response = response;
  }
}

std::size_t SessionTable::size() const {
  std::size_t n = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard lk(s.mu);
    for (const auto& [id, e] : s.clients) {
      if (e.last_seq != 0) ++n;
    }
  }
  return n;
}

std::uint64_t SessionTable::duplicates_filtered() const {
  return duplicates_filtered_.load(std::memory_order_relaxed);
}

std::uint64_t SessionTable::digest() const {
  // Order-insensitive sum of per-entry mixes, same scheme as KvStore.
  std::uint64_t acc = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard lk(s.mu);
    for (const auto& [id, e] : s.clients) {
      if (e.last_seq == 0) continue;
      std::uint64_t h = util::mix64(id);
      h = util::hash_combine(h, util::mix64(e.floor));
      for (const std::uint64_t seq : e.above) h = util::hash_combine(h, util::mix64(seq));
      h = util::hash_combine(h, util::mix64(e.last_seq));
      h = util::hash_combine(h, util::mix64(static_cast<std::uint64_t>(e.last_response.status)));
      h = util::hash_combine(h, util::mix64(e.last_response.value));
      acc += h;
    }
  }
  return acc;
}

std::vector<std::uint8_t> SessionTable::serialize() const {
  // One stripe lock at a time: gather each stripe's live (id, pointer)
  // pairs under its own lock, then sort and write with no lock held. The
  // pointers stay valid and their entries unchanged after the lock drops
  // because no writer runs: the only caller is CheckpointManager::
  // checkpoint_at, between barrier_.drain(seq) and release() on the
  // delivery thread, so every claim has finished and none can start.
  // Holding all 64 stripes at once instead (plus the caller's own locks,
  // e.g. LocalBroadcast's mutex) overflows ThreadSanitizer's deadlock
  // detector.
  std::vector<std::pair<std::uint64_t, const Entry*>> entries;
  std::size_t bytes = sizeof(kMagic) + sizeof(std::uint64_t);
  for (const Stripe& s : stripes_) {
    std::lock_guard lk(s.mu);
    for (const auto& [id, e] : s.clients) {
      if (e.last_seq == 0) continue;
      entries.emplace_back(id, &e);
      bytes += kEntryFixedBytes + sizeof(std::uint64_t) * e.above.size();
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::uint8_t> out(bytes);
  std::uint8_t* at = out.data();
  at = put(at, kMagic);
  at = put(at, static_cast<std::uint64_t>(entries.size()));
  for (const auto& [id, e] : entries) {
    at = put(at, id);
    at = put(at, e->floor);
    at = put(at, e->last_seq);
    at = put(at, static_cast<std::uint8_t>(e->last_response.status));
    at = put(at, e->last_response.value);
    at = put(at, static_cast<std::uint32_t>(e->above.size()));
    for (const std::uint64_t seq : e->above) at = put(at, seq);  // std::set: ascending
  }
  PSMR_CHECK(at == out.data() + out.size());
  return out;
}

bool SessionTable::deserialize(const std::vector<std::uint8_t>& bytes) {
  clear();
  std::size_t off = 0;
  std::uint32_t magic = 0;
  std::uint64_t count = 0;
  if (!get(bytes, off, magic) || magic != kMagic || !get(bytes, off, count)) return false;
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t id = 0, floor = 0, seq = 0, value = 0;
    std::uint8_t status = 0;
    std::uint32_t n_above = 0;
    if (!get(bytes, off, id) || !get(bytes, off, floor) || !get(bytes, off, seq) ||
        !get(bytes, off, status) || !get(bytes, off, value) || !get(bytes, off, n_above) ||
        status > static_cast<std::uint8_t>(Status::kFailed) || seq == 0) {
      clear();
      return false;
    }
    Entry e;
    e.floor = floor;
    for (std::uint32_t j = 0; j < n_above; ++j) {
      std::uint64_t above = 0;
      if (!get(bytes, off, above) || above <= e.floor) {
        clear();
        return false;
      }
      e.above.insert(above);
    }
    e.last_seq = seq;
    e.last_response = Response{static_cast<Status>(status), value, id, seq};
    Stripe& s = stripe_for(id);
    std::lock_guard lk(s.mu);
    s.clients[id] = e;
  }
  if (off != bytes.size()) {
    clear();
    return false;
  }
  return true;
}

void SessionTable::clear() {
  for (Stripe& s : stripes_) {
    std::lock_guard lk(s.mu);
    s.clients.clear();
  }
}

}  // namespace psmr::smr
