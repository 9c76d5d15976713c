#include "testing/fault_schedule.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/assert.hpp"

namespace psmr::testing {

void FaultSchedule::add_entry(Trigger trigger, std::uint64_t threshold,
                              std::string label, Action fire, FaultKind kind,
                              Gate ready) {
  PSMR_CHECK(fire != nullptr);
  std::lock_guard lk(mu_);
  entries_.push_back(Entry{trigger, threshold, std::move(label), std::move(fire), kind,
                           std::move(ready), false});
}

void FaultSchedule::at(Trigger trigger, std::uint64_t threshold, std::string label,
                       Action fire) {
  add_entry(trigger, threshold, std::move(label), std::move(fire), FaultKind::kCustom);
}

void FaultSchedule::crash_replica_at(Trigger trigger, std::uint64_t threshold,
                                     std::string label, ReplicaFaultTarget& target,
                                     Gate ready) {
  add_entry(trigger, threshold, std::move(label), [&target] { target.crash(); },
            FaultKind::kReplicaCrash, std::move(ready));
}

void FaultSchedule::restart_replica_at(Trigger trigger, std::uint64_t threshold,
                                       std::string label, ReplicaFaultTarget& target,
                                       Gate ready) {
  add_entry(trigger, threshold, std::move(label), [&target] { target.restart(); },
            FaultKind::kReplicaRestart, std::move(ready));
}

void FaultSchedule::advance(Trigger trigger, std::uint64_t value) {
  // Collect due actions under the lock, run them outside it: actions poke
  // the network/group, which may synchronously produce more events (and
  // re-enter advance).
  std::vector<Entry*> due;
  {
    std::lock_guard lk(mu_);
    for (Entry& e : entries_) {
      if (e.fired || e.trigger != trigger || value < e.threshold) continue;
      if (e.ready && !e.ready()) continue;
      e.fired = true;  // claim before running: exactly-once firing
      fired_.push_back(e.label);
      due.push_back(&e);
    }
  }
  for (Entry* e : due) e->fire();
}

std::vector<std::string> FaultSchedule::fired() const {
  std::lock_guard lk(mu_);
  return fired_;
}

std::size_t FaultSchedule::pending() const {
  std::lock_guard lk(mu_);
  std::size_t n = 0;
  for (const Entry& e : entries_) n += e.fired ? 0 : 1;
  return n;
}

std::size_t FaultSchedule::fired_count(FaultKind kind) const {
  std::lock_guard lk(mu_);
  std::size_t n = 0;
  for (const Entry& e : entries_) n += (e.fired && e.kind == kind) ? 1 : 0;
  return n;
}

void ThrowingService::throw_on(std::uint64_t client_id, std::uint64_t sequence) {
  std::lock_guard lk(mu_);
  fail_tokens_.insert(token(client_id, sequence));
}

smr::Response ThrowingService::execute(const smr::Command& cmd) {
  {
    std::lock_guard lk(mu_);
    if (fail_tokens_.contains(token(cmd.client_id, cmd.sequence))) {
      throws_.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("injected worker fault");
    }
  }
  return inner_.execute(cmd);
}

smr::Response ExecutionCounter::execute(const smr::Command& cmd) {
  if (cmd.sequence != 0) {
    const std::uint64_t tok = (cmd.client_id << 32) ^ cmd.sequence;
    std::lock_guard lk(mu_);
    ++counts_[tok];
  }
  return inner_.execute(cmd);
}

std::uint64_t ExecutionCounter::max_executions() const {
  std::lock_guard lk(mu_);
  std::uint64_t mx = 0;
  for (const auto& [tok, n] : counts_) mx = std::max(mx, n);
  return mx;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> ExecutionCounter::over_executed()
    const {
  std::lock_guard lk(mu_);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const auto& [tok, n] : counts_) {
    if (n > 1) out.emplace_back(tok >> 32, tok & 0xffffffffULL);
  }
  return out;
}

std::size_t ExecutionCounter::distinct_commands() const {
  std::lock_guard lk(mu_);
  return counts_.size();
}

}  // namespace psmr::testing
