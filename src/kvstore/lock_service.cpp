#include "kvstore/lock_service.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace psmr::kv {

LockTable::LockTable(std::size_t shards) : mask_(0), shards_(std::bit_ceil(shards)) {
  PSMR_CHECK(!shards_.empty());
  mask_ = shards_.size() - 1;
}

LockTable::Shard& LockTable::shard_for(smr::Key key) const {
  return shards_[util::mix64(key) & mask_];
}

smr::Status LockTable::acquire(smr::Key lock, std::uint64_t owner) {
  Shard& s = shard_for(lock);
  std::lock_guard lk(s.mu);
  auto [it, inserted] = s.owners.try_emplace(lock, owner);
  if (inserted || it->second == owner) return smr::Status::kOk;  // re-entrant
  return smr::Status::kAlreadyExists;
}

smr::Status LockTable::release(smr::Key lock, std::uint64_t owner) {
  Shard& s = shard_for(lock);
  std::lock_guard lk(s.mu);
  auto it = s.owners.find(lock);
  if (it == s.owners.end() || it->second != owner) return smr::Status::kNotFound;
  s.owners.erase(it);
  return smr::Status::kOk;
}

smr::Status LockTable::holder(smr::Key lock, std::uint64_t& owner_out) const {
  Shard& s = shard_for(lock);
  std::lock_guard lk(s.mu);
  auto it = s.owners.find(lock);
  if (it == s.owners.end()) return smr::Status::kNotFound;
  owner_out = it->second;
  return smr::Status::kOk;
}

smr::Status LockTable::force_transfer(smr::Key lock, std::uint64_t new_owner) {
  Shard& s = shard_for(lock);
  std::lock_guard lk(s.mu);
  s.owners[lock] = new_owner;
  return smr::Status::kOk;
}

std::size_t LockTable::held_count() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard lk(s.mu);
    n += s.owners.size();
  }
  return n;
}

std::uint64_t LockTable::digest() const {
  std::uint64_t d = 0;
  for (const Shard& s : shards_) {
    std::lock_guard lk(s.mu);
    for (const auto& [lock, owner] : s.owners) {
      d += util::mix64(util::hash_combine(util::mix64(lock), util::mix64(owner)));
    }
  }
  return d;
}

std::vector<std::pair<smr::Key, std::uint64_t>> LockTable::snapshot() const {
  std::vector<std::pair<smr::Key, std::uint64_t>> out;
  for (const Shard& s : shards_) {
    std::lock_guard lk(s.mu);
    out.insert(out.end(), s.owners.begin(), s.owners.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

smr::Response LockService::execute(const smr::Command& cmd) {
  smr::Response r;
  r.client_id = cmd.client_id;
  r.sequence = cmd.sequence;
  switch (cmd.type) {
    case smr::OpType::kCreate:  // ACQUIRE
      r.status = table_.acquire(cmd.key, cmd.client_id);
      r.value = cmd.client_id;
      break;
    case smr::OpType::kRemove:  // RELEASE
      r.status = table_.release(cmd.key, cmd.client_id);
      break;
    case smr::OpType::kRead: {  // HOLDER
      std::uint64_t owner = 0;
      r.status = table_.holder(cmd.key, owner);
      r.value = owner;
      break;
    }
    case smr::OpType::kUpdate:  // BARRIER / force transfer
      r.status = table_.force_transfer(cmd.key, cmd.value);
      r.value = cmd.value;
      break;
  }
  return r;
}

}  // namespace psmr::kv
