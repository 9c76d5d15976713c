#include "kvstore/kvstore.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace psmr::kv {

namespace {

constexpr std::uint64_t kMagic = 0x50534d524b560001ull;  // "PSMRKV" v1
constexpr std::size_t kHeaderBytes = 16;                   // magic + count
constexpr std::size_t kEntryBytes = 16;                    // key + value
constexpr std::size_t kMinCapacity = 8;

/// Maximum load 4/5: a hit probes about three slots on average, and a
/// table holds between 2/5 and 4/5 of its slots, so at 20 B per slot it
/// needs no more memory per entry than the node-based map it replaced
/// (~40 B per node and bucket).
bool over_max_load(std::size_t used, std::size_t capacity) { return 5 * used > 4 * capacity; }

/// A zeroed frame of `count` entries with its header written.
std::vector<std::uint8_t> frame_for(std::uint64_t count) {
  std::vector<std::uint8_t> out(kHeaderBytes + kEntryBytes * count);
  std::memcpy(out.data(), &kMagic, sizeof(kMagic));
  std::memcpy(out.data() + sizeof(kMagic), &count, sizeof(count));
  return out;
}

void put_entry(std::vector<std::uint8_t>& frame, std::size_t index, smr::Key key,
               smr::Value value) {
  std::uint8_t* at = frame.data() + kHeaderBytes + kEntryBytes * index;
  std::memcpy(at, &key, sizeof(key));
  std::memcpy(at + sizeof(key), &value, sizeof(value));
}

}  // namespace

// --- Shard: linear probing over one power-of-two slot array -------------

std::size_t KvStore::Shard::home(std::uint64_t hash) const {
  // The top bits of the hash: shard selection consumes the low ones.
  return static_cast<std::size_t>(hash >> std::countl_zero(std::uint64_t{capacity - 1}));
}

KvStore::Slot* KvStore::Shard::find(smr::Key key, std::uint64_t hash) const {
  if (capacity == 0) return nullptr;
  const std::size_t mask = capacity - 1;
  // The load stays below 1, so every probe run ends at an empty slot.
  for (std::size_t i = home(hash);; i = (i + 1) & mask) {
    if (ranks[i] == 0) return nullptr;
    if (slots[i].key == key) return &slots[i];
  }
}

void KvStore::Shard::place(const Slot& slot, std::uint32_t rank, std::uint64_t hash) {
  const std::size_t mask = capacity - 1;
  std::size_t i = home(hash);
  while (ranks[i] != 0) i = (i + 1) & mask;
  slots[i] = slot;
  ranks[i] = rank;
}

void KvStore::Shard::grow() {
  const std::size_t old_capacity = capacity;
  std::unique_ptr<Slot[]> old = std::move(slots);
  std::unique_ptr<std::uint32_t[]> old_ranks = std::move(ranks);
  capacity = old_capacity == 0 ? kMinCapacity : old_capacity * 2;
  slots = std::make_unique<Slot[]>(capacity);
  ranks = std::make_unique<std::uint32_t[]>(capacity);
  for (std::size_t i = 0; i < old_capacity; ++i) {
    if (old_ranks[i] != 0) place(old[i], old_ranks[i], util::mix64(old[i].key));
  }
}

void KvStore::Shard::insert(smr::Key key, smr::Value value, std::uint64_t hash) {
  if (over_max_load(used + 1, capacity)) grow();
  // Any nonzero rank marks the slot used; the epoch bump below makes the
  // shard's ranks stale until the next sort rewrites them.
  place(Slot{key, value}, 1, hash);
  ++used;
  ++epoch;
}

void KvStore::Shard::erase(Slot* slot) {
  // Backward shift: pull each later entry of the probe run into the hole
  // unless its home lies cyclically in (hole, j], so no tombstones remain
  // and every lookup still ends at the first empty slot.
  const std::size_t mask = capacity - 1;
  std::size_t hole = static_cast<std::size_t>(slot - slots.get());
  for (std::size_t j = (hole + 1) & mask; ranks[j] != 0; j = (j + 1) & mask) {
    const std::size_t displacement = (j - home(util::mix64(slots[j].key))) & mask;
    if (displacement >= ((j - hole) & mask)) {
      slots[hole] = slots[j];
      ranks[hole] = ranks[j];
      hole = j;
    }
  }
  ranks[hole] = 0;
  --used;
  ++epoch;
}

void KvStore::Shard::reset() {
  slots.reset();
  ranks.reset();
  capacity = 0;
  used = 0;
  ++epoch;
}

// --- KvStore --------------------------------------------------------------

KvStore::KvStore(std::size_t shards) : mask_(0), shards_(std::bit_ceil(shards)) {
  PSMR_CHECK(!shards_.empty());
  mask_ = shards_.size() - 1;
}

smr::Status KvStore::create(smr::Key key, smr::Value value) {
  const std::uint64_t h = util::mix64(key);
  Shard& s = shard_for(h);
  std::lock_guard lk(s.mu);
  if (s.find(key, h) != nullptr) return smr::Status::kAlreadyExists;
  s.insert(key, value, h);
  return smr::Status::kOk;
}

smr::Status KvStore::read(smr::Key key, smr::Value& out) const {
  const std::uint64_t h = util::mix64(key);
  const Shard& s = shard_for(h);
  std::lock_guard lk(s.mu);
  const Slot* slot = s.find(key, h);
  if (slot == nullptr) return smr::Status::kNotFound;
  out = slot->value;
  return smr::Status::kOk;
}

smr::Status KvStore::update(smr::Key key, smr::Value value) {
  const std::uint64_t h = util::mix64(key);
  Shard& s = shard_for(h);
  std::lock_guard lk(s.mu);
  if (Slot* slot = s.find(key, h)) {
    slot->value = value;
  } else {
    s.insert(key, value, h);
  }
  return smr::Status::kOk;
}

smr::Status KvStore::remove(smr::Key key) {
  const std::uint64_t h = util::mix64(key);
  Shard& s = shard_for(h);
  std::lock_guard lk(s.mu);
  Slot* slot = s.find(key, h);
  if (slot == nullptr) return smr::Status::kNotFound;
  s.erase(slot);
  return smr::Status::kOk;
}

std::size_t KvStore::size() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard lk(s.mu);
    n += s.used;
  }
  return n;
}

std::uint64_t KvStore::digest() const {
  std::uint64_t d = 0;
  for (const Shard& s : shards_) {
    std::lock_guard lk(s.mu);
    for (std::size_t i = 0; i < s.capacity; ++i) {
      if (s.ranks[i] == 0) continue;
      const Slot& slot = s.slots[i];
      d += util::mix64(util::hash_combine(util::mix64(slot.key), util::mix64(slot.value)));
    }
  }
  return d;
}

std::vector<std::pair<smr::Key, smr::Value>> KvStore::snapshot() const {
  const std::vector<std::uint8_t> frame = serialize();
  std::vector<std::pair<smr::Key, smr::Value>> out((frame.size() - kHeaderBytes) / kEntryBytes);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::uint8_t* at = frame.data() + kHeaderBytes + kEntryBytes * i;
    std::memcpy(&out[i].first, at, sizeof(smr::Key));
    std::memcpy(&out[i].second, at + sizeof(smr::Key), sizeof(smr::Value));
  }
  return out;
}

std::vector<std::uint8_t> KvStore::serialize() const {
  std::lock_guard lk(rank_mu_);
  std::vector<std::uint8_t> out = serialize_ranked();
  // A frame is never empty (it has a header): empty means the key set
  // changed since the last sort.
  if (out.empty()) out = serialize_sorted();
  return out;
}

std::vector<std::uint8_t> KvStore::serialize_ranked() const {
  // Every shard matching its ranked epoch means every shard was ranked by
  // the same, latest sort and still holds exactly the keys it had then
  // (a shard that changed mid-sort kept an older ranked epoch, and epochs
  // only grow): the stored ranks are a permutation of [0, ranked_count_).
  const std::size_t n = ranked_count_;
  std::vector<std::uint8_t> out = frame_for(n);
  std::size_t seen = 0;
  for (const Shard& s : shards_) {
    std::lock_guard lk(s.mu);
    if (s.epoch != s.ranked_epoch) return {};
    for (std::size_t i = 0; i < s.capacity; ++i) {
      const std::uint32_t rank = s.ranks[i];
      if (rank == 0) continue;
      PSMR_DCHECK(rank <= n);
      put_entry(out, rank - 1, s.slots[i].key, s.slots[i].value);
    }
    seen += s.used;
  }
  PSMR_CHECK(seen == n);
  return out;
}

std::vector<std::uint8_t> KvStore::serialize_sorted() const {
  // Gather shard by shard; `values` keeps gather order so the ranks can be
  // written back by re-walking each shard's slots in the same order.
  struct Item {
    smr::Key key;
    std::uint64_t gathered;  // index into `values`
  };
  std::vector<Item> items;
  std::vector<smr::Value> values;
  std::vector<std::uint64_t> epochs(shards_.size());
  std::vector<std::size_t> first(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    std::lock_guard lk(shard.mu);
    epochs[s] = shard.epoch;
    first[s] = values.size();
    for (std::size_t i = 0; i < shard.capacity; ++i) {
      if (shard.ranks[i] == 0) continue;
      items.push_back(Item{shard.slots[i].key, values.size()});
      values.push_back(shard.slots[i].value);
    }
  }
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.key < b.key; });

  const std::size_t n = items.size();
  PSMR_CHECK(n < std::numeric_limits<std::uint32_t>::max());
  std::vector<std::uint8_t> out = frame_for(n);
  std::vector<std::uint32_t> rank_of(n);  // by gather index
  for (std::size_t r = 0; r < n; ++r) {
    put_entry(out, r, items[r].key, values[items[r].gathered]);
    rank_of[items[r].gathered] = static_cast<std::uint32_t>(r);
  }

  // Cache the ranks in every shard whose key set (and so slot layout) is
  // still the gathered one; a shard that changed keeps a stale ranked
  // epoch, which sends the next serialize() back here.
  ranked_count_ = n;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    std::lock_guard lk(shard.mu);
    if (shard.epoch != epochs[s]) continue;
    std::size_t g = first[s];
    for (std::size_t i = 0; i < shard.capacity; ++i) {
      if (shard.ranks[i] != 0) shard.ranks[i] = rank_of[g++] + 1;
    }
    shard.ranked_epoch = shard.epoch;
  }
  return out;
}

bool KvStore::deserialize(const std::vector<std::uint8_t>& bytes) {
  // Validate the whole frame into a staging buffer before touching any
  // shard: a truncated or corrupted stream must leave existing state
  // intact, or a failed checkpoint install would wipe a live replica.
  std::size_t off = 0;
  auto get = [&](void* p, std::size_t n) {
    if (off + n > bytes.size()) return false;
    std::memcpy(p, bytes.data() + off, n);
    off += n;
    return true;
  };
  std::uint64_t magic = 0, count = 0;
  if (!get(&magic, sizeof(magic)) || magic != kMagic) return false;
  if (!get(&count, sizeof(count))) return false;
  if (count != (bytes.size() - off) / kEntryBytes) return false;  // truncated / padded
  std::vector<std::pair<smr::Key, smr::Value>> staged;
  staged.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    smr::Key k = 0;
    smr::Value v = 0;
    if (!get(&k, sizeof(k)) || !get(&v, sizeof(v))) return false;
    // serialize() emits strictly ascending keys; anything else is a
    // corrupted (or duplicated-entry) frame.
    if (!staged.empty() && k <= staged.back().first) return false;
    staged.emplace_back(k, v);
  }
  if (off != bytes.size()) return false;  // trailing garbage
  clear();
  for (const auto& [k, v] : staged) update(k, v);
  return true;
}

void KvStore::clear() {
  for (Shard& s : shards_) {
    std::lock_guard lk(s.mu);
    s.reset();
  }
}

}  // namespace psmr::kv
