#include "workload/generator.hpp"

#include "util/assert.hpp"
#include "util/hash.hpp"

namespace psmr::workload {

namespace {
/// Each generator draws its disjoint-mode keys from a private 2^40 range so
/// proxies never collide; 2^40 keys outlast any feasible run.
constexpr std::uint64_t kDisjointRangeBits = 40;
}  // namespace

Generator::Generator(GeneratorConfig cfg, std::uint64_t proxy_index, RecentKeyPool* pool)
    : cfg_(cfg),
      pool_(pool),
      rng_(util::hash_combine(cfg.seed, proxy_index + 1)),
      zipf_(cfg.key_space, cfg.distribution == KeyDistribution::kZipf ? cfg.zipf_theta : 0.0),
      next_disjoint_(proxy_index << kDisjointRangeBits) {
  PSMR_CHECK(cfg_.batch_size >= 1);
  PSMR_CHECK(cfg_.key_space >= 1);
  if (cfg_.conflict_rate > 0.0) PSMR_CHECK(pool_ != nullptr);
}

void Generator::begin_batch() {
  ++batches_started_;
  conflict_slot_ = ~std::size_t{0};
  if (cfg_.conflict_rate > 0.0 && rng_.next_bool(cfg_.conflict_rate)) {
    conflict_slot_ = rng_.next_below(cfg_.batch_size);
  }
  batch_keys_.clear();
}

smr::Key Generator::fresh_key() {
  if (cfg_.disjoint_keys) return next_disjoint_++;
  if (cfg_.distribution == KeyDistribution::kZipf) {
    // Scramble ranks so the hot keys are spread over the key space rather
    // than clustered at 0..k (matters for store sharding).
    return util::mix64(zipf_(rng_)) % cfg_.key_space;
  }
  return rng_.next_below(cfg_.key_space);
}

smr::Command Generator::next(std::uint64_t client_id, std::uint64_t seq) {
  if (in_batch_ == 0) begin_batch();

  smr::Command cmd;
  cmd.client_id = client_id;
  cmd.sequence = seq;
  cmd.cost_ns = cfg_.cost_ns;
  cmd.value = rng_();

  cmd.type = (cfg_.read_fraction > 0.0 && rng_.next_bool(cfg_.read_fraction))
                 ? smr::OpType::kRead
                 : smr::OpType::kUpdate;

  if (in_batch_ == conflict_slot_) {
    // Writes drawn from the shared pool collide with a key another proxy
    // issued recently — its batch is likely still pending at the replica.
    const auto pooled = pool_->sample(rng_);
    if (pooled.has_value()) {
      cmd.key = *pooled;
      cmd.type = smr::OpType::kUpdate;  // conflicts require a write
      ++conflict_batches_;
    } else {
      cmd.key = fresh_key();  // pool still empty (run warm-up)
    }
  } else {
    cmd.key = fresh_key();
  }

  batch_keys_.push_back(cmd.key);
  ++in_batch_;
  if (in_batch_ == cfg_.batch_size) {
    in_batch_ = 0;
    if (pool_ != nullptr) pool_->add(batch_keys_);
  }
  return cmd;
}

}  // namespace psmr::workload
