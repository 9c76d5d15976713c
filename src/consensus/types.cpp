#include "consensus/types.hpp"

#include <iterator>

namespace psmr::consensus {

bool RequestDedup::insert(std::uint64_t id) {
  if (contains(id)) return false;
  if (id == floor_ + 1) {
    // The common case: ids arrive in order and only the floor moves. A run
    // that now touches the floor becomes part of it.
    floor_ = id;
    if (!runs_.empty() && runs_.begin()->first == floor_ + 1) {
      floor_ = runs_.begin()->second;
      runs_.erase(runs_.begin());
    }
    return true;
  }
  // Join the run ending just below `id` (or start one), then swallow the
  // run starting just above it.
  auto next = runs_.upper_bound(id);
  std::map<std::uint64_t, std::uint64_t>::iterator run;
  if (next != runs_.begin() && std::prev(next)->second + 1 == id) {
    run = std::prev(next);
    run->second = id;
  } else {
    run = runs_.emplace_hint(next, id, id);
  }
  if (next != runs_.end() && next->first == id + 1) {
    run->second = next->second;
    runs_.erase(next);
  }
  return true;
}

bool RequestDedup::contains(std::uint64_t id) const {
  if (id == 0) return true;
  if (id <= floor_) return true;
  auto next = runs_.upper_bound(id);
  return next != runs_.begin() && std::prev(next)->second >= id;
}

}  // namespace psmr::consensus
