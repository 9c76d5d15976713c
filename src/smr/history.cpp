#include "smr/history.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "util/assert.hpp"

namespace psmr::smr {

std::size_t HistoryRecorder::begin(const Command& cmd, std::uint64_t now_ns) {
  std::lock_guard lk(mu_);
  ops_.push_back(HistoryOp{cmd, Response{}, now_ns, 0});
  return ops_.size() - 1;
}

void HistoryRecorder::complete(std::size_t ticket, const Response& r, std::uint64_t now_ns) {
  std::lock_guard lk(mu_);
  PSMR_CHECK(ticket < ops_.size());
  ops_[ticket].response = r;
  ops_[ticket].responded_ns = now_ns;
}

std::vector<HistoryOp> HistoryRecorder::snapshot() const {
  std::lock_guard lk(mu_);
  std::vector<HistoryOp> out;
  out.reserve(ops_.size());
  for (const HistoryOp& op : ops_) {
    if (op.responded_ns != 0) out.push_back(op);
  }
  return out;
}

std::size_t HistoryRecorder::size() const {
  std::lock_guard lk(mu_);
  return ops_.size();
}

namespace {

/// Sequential KV semantics over a single key. State: present? value.
struct KeyState {
  bool present = false;
  Value value = 0;
};

/// Applies `op` to `state`; true iff the recorded response matches the
/// sequential specification from this state.
bool apply_matches(const HistoryOp& op, KeyState& state) {
  const Command& c = op.command;
  const Response& r = op.response;
  switch (c.type) {
    case OpType::kCreate:
      if (state.present) return r.status == Status::kAlreadyExists;
      state.present = true;
      state.value = c.value;
      return r.status == Status::kOk;
    case OpType::kRead:
      if (!state.present) return r.status == Status::kNotFound;
      return r.status == Status::kOk && r.value == state.value;
    case OpType::kUpdate:
      state.present = true;
      state.value = c.value;
      return r.status == Status::kOk;
    case OpType::kRemove:
      if (!state.present) return r.status == Status::kNotFound;
      state.present = false;
      return r.status == Status::kOk;
  }
  return false;
}

std::uint64_t state_token(const KeyState& s) {
  return s.present ? (s.value * 2 + 1) : 0;
}

/// Wing–Gong backtracking on one key's sub-history. `ops` sorted by
/// invocation time. Returns true iff a legal linearization exists.
bool linearizable_one_key(const std::vector<const HistoryOp*>& ops) {
  const std::size_t n = ops.size();
  if (n == 0) return true;
  PSMR_CHECK(n <= 64);  // bitmask below

  // Memoize failed (linearized-set, state) configurations. Exact keys — a
  // hash collision here could wrongly prune a feasible branch and report a
  // linearizable history as non-linearizable.
  std::set<std::pair<std::uint64_t, std::uint64_t>> failed;

  struct Frame {
    std::uint64_t mask;
    KeyState state;
    std::size_t next_candidate;
  };

  std::vector<Frame> stack;
  std::vector<std::pair<std::uint64_t, KeyState>> trail;  // chosen ops

  std::uint64_t mask = 0;
  KeyState state;
  std::size_t candidate = 0;

  auto config_key = [](std::uint64_t m, const KeyState& s) {
    return std::make_pair(m, state_token(s));
  };

  for (;;) {
    if (mask == (n == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << n) - 1))) {
      return true;  // everything linearized
    }
    // The earliest response among not-yet-linearized ops bounds which ops
    // may be linearized next: op i is a candidate iff no unlinearized op
    // responded before i was invoked.
    std::uint64_t min_resp = ~std::uint64_t{0};
    for (std::size_t i = 0; i < n; ++i) {
      if (!(mask >> i & 1)) min_resp = std::min(min_resp, ops[i]->responded_ns);
    }
    bool advanced = false;
    for (std::size_t i = candidate; i < n; ++i) {
      if (mask >> i & 1) continue;
      if (ops[i]->invoked_ns > min_resp) continue;  // not minimal
      KeyState next_state = state;
      if (!apply_matches(*ops[i], next_state)) continue;
      const std::uint64_t next_mask = mask | (std::uint64_t{1} << i);
      if (failed.contains(config_key(next_mask, next_state))) continue;
      // Descend.
      stack.push_back(Frame{mask, state, i + 1});
      mask = next_mask;
      state = next_state;
      candidate = 0;
      advanced = true;
      break;
    }
    if (advanced) continue;
    // Dead end: remember and backtrack.
    failed.insert(config_key(mask, state));
    if (stack.empty()) return false;
    mask = stack.back().mask;
    state = stack.back().state;
    candidate = stack.back().next_candidate;
    stack.pop_back();
  }
}

}  // namespace

LinearizabilityResult check_linearizable(const std::vector<HistoryOp>& history,
                                         std::size_t max_ops_per_key) {
  LinearizabilityResult result;
  std::map<Key, std::vector<const HistoryOp*>> by_key;
  for (const HistoryOp& op : history) by_key[op.command.key].push_back(&op);

  for (auto& [key, ops] : by_key) {
    if (ops.size() > max_ops_per_key || ops.size() > 64) {
      result.ok = false;
      result.key = key;
      result.detail = "sub-history too large for the checker (" +
                      std::to_string(ops.size()) + " ops on key " + std::to_string(key) + ")";
      return result;
    }
    std::sort(ops.begin(), ops.end(), [](const HistoryOp* a, const HistoryOp* b) {
      return a->invoked_ns < b->invoked_ns;
    });
    if (!linearizable_one_key(ops)) {
      result.ok = false;
      result.key = key;
      result.detail = "no legal linearization for the " + std::to_string(ops.size()) +
                      " operations on key " + std::to_string(key);
      return result;
    }
  }
  return result;
}

}  // namespace psmr::smr
