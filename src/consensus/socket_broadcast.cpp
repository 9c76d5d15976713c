#include "consensus/socket_broadcast.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace psmr::consensus {

namespace {

/// A subscriber that does not broadcast has no data frame to carry its
/// progress, so it reports it with a kSubscribe every this many deliveries
/// (besides every retransmit period). A quarter of the relay's default
/// window keeps its stream flowing without a stall.
constexpr std::uint64_t kProgressStride = 64;

}  // namespace

// ----------------------------------------------------------------- server --

BroadcastRelayServer::BroadcastRelayServer(net::SocketTransport& transport,
                                           AtomicBroadcast& inner,
                                           RelayServerConfig config)
    : transport_(transport), inner_(inner), config_(config) {}

BroadcastRelayServer::~BroadcastRelayServer() { stop(); }

void BroadcastRelayServer::start() {
  PSMR_CHECK(!started_);
  started_ = true;
  endpoint_ = transport_.register_process(config_.process);
  // Subscribe BEFORE the inner broadcast starts (AtomicBroadcast contract) —
  // callers construct/start() the relay first, then start the inner group.
  inner_.subscribe([this](std::uint64_t seq, Value payload) {
    std::lock_guard lk(mu_);
    // The inner stream is gap-free and 1-based; retain every entry so late
    // or restarted subscribers can replay from any sequence. The entry is
    // the buffer the inner broadcast delivered, not a copy.
    PSMR_DCHECK(seq == log_.size() + 1);
    if (seq > log_.size()) log_.resize(seq);
    log_[seq - 1] = std::move(payload);
    pump_locked();  // push the new entry to in-window subscribers now
  });
  serve_thread_ = std::thread([this] { serve_loop(); });
}

void BroadcastRelayServer::stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  if (serve_thread_.joinable()) serve_thread_.join();
}

std::uint64_t BroadcastRelayServer::log_size() const {
  std::lock_guard lk(mu_);
  return log_.size();
}

void BroadcastRelayServer::serve_loop() {
  auto last_tick = Clock::now();
  while (!stop_.load(std::memory_order_relaxed)) {
    if (auto env = endpoint_->recv_for(config_.retransmit_period)) {
      handle(std::move(*env));
    }
    const auto now = Clock::now();
    if (now - last_tick >= config_.retransmit_period) {
      last_tick = now;
      std::lock_guard lk(mu_);
      tick_locked();
    }
  }
}

void BroadcastRelayServer::handle(net::SocketEnvelope env) {
  auto msg = relay::decode(std::move(env.msg));
  if (!msg) return;  // malformed: drop; retransmission covers real traffic
  if (msg->kind != relay::kSubscribe && msg->kind != relay::kBroadcast) return;
  std::unique_lock lk(mu_);
  Peer& peer = peers_[env.from];
  if (msg->kind == relay::kSubscribe) {
    const std::uint64_t acked = msg->arg == 0 ? 0 : msg->arg - 1;
    if (!peer.subscribed || acked < peer.acked) {
      // A new subscriber, or a restarted one asking for an earlier point:
      // its stream (re)starts there.
      peer.subscribed = true;
      peer.acked = acked;
      peer.sent_until = acked;
    } else {
      advance_ack_locked(peer, acked);
    }
    pump_locked();
    return;
  }
  // kBroadcast: the ack it carries may open the subscriber's window.
  if (peer.subscribed && msg->ack > peer.acked) {
    advance_ack_locked(peer, msg->ack);
    pump_locked();
  }
  const bool fresh = peer.requests.insert(msg->arg);
  lk.unlock();
  // inner_.broadcast may block (consensus backpressure) — never under mu_.
  // No ack frame: the next kDeliver to this client, or the tick, carries the
  // advanced dedup floor.
  if (fresh) inner_.broadcast(std::move(msg->payload));
}

void BroadcastRelayServer::advance_ack_locked(Peer& peer, std::uint64_t acked) {
  if (acked <= peer.acked) return;
  peer.acked = acked;
  peer.sent_until = std::max(peer.sent_until, acked);
  peer.acked_at = Clock::now();
}

void BroadcastRelayServer::tick_locked() {
  const auto now = Clock::now();
  for (auto& [id, peer] : peers_) {
    if (peer.subscribed && peer.sent_until > peer.acked &&
        now - peer.acked_at >= config_.retransmit_period) {
      // The ack stalled with frames outstanding: some were shed (dead
      // connection, buffer cap). Replay from the ack point; the subscriber
      // drops any duplicates by sequence.
      peer.sent_until = peer.acked;
    }
    const std::uint64_t floor = peer.requests.floor();
    if (floor > peer.floor_sent) {
      // No kDeliver carried this client's advanced floor (it does not
      // subscribe, or its requests are still being ordered): ack them all
      // in one frame.
      (void)transport_.send(config_.process, id, relay::encode(relay::kBroadcastAck, 0, floor));
      peer.floor_sent = floor;
    }
  }
  pump_locked();
}

void BroadcastRelayServer::pump_locked() {
  for (auto& [id, peer] : peers_) {
    if (!peer.subscribed) continue;
    while (peer.sent_until < log_.size() && peer.sent_until - peer.acked < config_.window) {
      // Streaming resumes from idle: the stall clock starts now.
      if (peer.sent_until == peer.acked) peer.acked_at = Clock::now();
      const std::uint64_t seq = peer.sent_until + 1;
      peer.floor_sent = peer.requests.floor();
      (void)transport_.send(config_.process, id,
                            relay::encode(relay::kDeliver, seq, peer.floor_sent,
                                          log_[seq - 1].get()));
      ++peer.sent_until;
    }
  }
}

// ----------------------------------------------------------------- client --

RemoteBroadcastClient::RemoteBroadcastClient(net::SocketTransport& transport,
                                             RemoteClientConfig config)
    : transport_(transport),
      config_(config),
      next_seq_(config.start_seq),
      reported_(config.start_seq - 1) {
  PSMR_CHECK(config_.start_seq >= 1);  // sequences are 1-based
  // Register (and bind the listener) at construction so the caller can read
  // transport.listen_port(process) and hand it to the relay's peer map
  // before any thread runs. Frames arriving before start() just buffer in
  // the endpoint inbox.
  endpoint_ = transport_.register_process(config_.process);
}

RemoteBroadcastClient::~RemoteBroadcastClient() { stop(); }

void RemoteBroadcastClient::subscribe(DeliverFn fn) {
  PSMR_CHECK(!started_);
  subscribers_.push_back(std::move(fn));
}

void RemoteBroadcastClient::start() {
  PSMR_CHECK(!started_);
  started_ = true;
  if (!subscribers_.empty()) {
    std::lock_guard lk(mu_);
    send_subscribe_locked();
  }
  recv_thread_ = std::thread([this] { recv_loop(); });
}

void RemoteBroadcastClient::stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  if (recv_thread_.joinable()) recv_thread_.join();
}

void RemoteBroadcastClient::broadcast(Value payload) {
  std::uint64_t id = 0;
  std::uint64_t delivered = 0;
  {
    std::lock_guard lk(mu_);
    id = next_request_id_++;
    unacked_broadcasts_.emplace(id, Unacked{payload, Clock::now()});
    delivered = next_seq_ - 1;
    reported_ = std::max(reported_, delivered);
  }
  (void)transport_.send(config_.process, config_.server,
                        relay::encode(relay::kBroadcast, id, delivered, payload.get()));
}

std::uint64_t RemoteBroadcastClient::next_seq() const {
  std::lock_guard lk(mu_);
  return next_seq_;
}

std::size_t RemoteBroadcastClient::unacked_broadcasts() const {
  std::lock_guard lk(mu_);
  return unacked_broadcasts_.size();
}

void RemoteBroadcastClient::recv_loop() {
  auto last_retx = Clock::now();
  while (!stop_.load(std::memory_order_relaxed)) {
    if (auto env = endpoint_->recv_for(config_.retransmit_period)) {
      handle(std::move(*env));
    }
    const auto now = Clock::now();
    if (now - last_retx >= config_.retransmit_period) {
      last_retx = now;
      std::lock_guard lk(mu_);
      retransmit_locked();
    }
  }
}

void RemoteBroadcastClient::send_subscribe_locked() {
  // kSubscribe doubles as keepalive and progress report: it tells the relay
  // exactly where this client's gap-free prefix ends. Covers lost progress
  // reports AND relay-side subscriber loss (e.g. a restarted relay process).
  (void)transport_.send(config_.process, config_.server,
                        relay::encode(relay::kSubscribe, next_seq_, 0));
  reported_ = next_seq_ - 1;
}

void RemoteBroadcastClient::retransmit_locked() {
  if (!subscribers_.empty()) send_subscribe_locked();
  const auto now = Clock::now();
  for (auto& [id, unacked] : unacked_broadcasts_) {
    if (now - unacked.sent_at < config_.retransmit_period) continue;  // ack may be en route
    unacked.sent_at = now;
    (void)transport_.send(config_.process, config_.server,
                          relay::encode(relay::kBroadcast, id, next_seq_ - 1,
                                        unacked.payload.get()));
  }
}

void RemoteBroadcastClient::ack_broadcasts_locked(std::uint64_t floor) {
  unacked_broadcasts_.erase(unacked_broadcasts_.begin(),
                            unacked_broadcasts_.upper_bound(floor));
}

void RemoteBroadcastClient::handle(net::SocketEnvelope env) {
  auto msg = relay::decode(std::move(env.msg));
  if (!msg) return;
  // Deliverables are collected under the lock but invoked outside it, so a
  // DeliverFn that calls back into broadcast() (or blocks) cannot deadlock.
  std::vector<std::pair<std::uint64_t, Value>> deliver;
  {
    std::lock_guard lk(mu_);
    switch (msg->kind) {
      case relay::kDeliver: {
        ack_broadcasts_locked(msg->ack);
        const std::uint64_t seq = msg->arg;
        if (seq < next_seq_) {
          // Duplicate: the relay is replaying from a stale ack point. Tell
          // it where this client really is, once per replay.
          if (reported_ + 1 < next_seq_) send_subscribe_locked();
          break;
        }
        if (seq > next_seq_) {
          // Out of order: hold until the gap fills, bounded; overflow is
          // dropped and re-covered by the relay's replay.
          if (reorder_.size() < config_.reorder_buffer) {
            reorder_.emplace(seq, std::move(msg->payload));
          }
          break;
        }
        deliver.emplace_back(seq, std::move(msg->payload));
        ++next_seq_;
        // The new arrival may have filled the gap in front of buffered
        // successors: drain the now-contiguous run.
        for (auto it = reorder_.find(next_seq_); it != reorder_.end();
             it = reorder_.find(next_seq_)) {
          deliver.emplace_back(it->first, std::move(it->second));
          reorder_.erase(it);
          ++next_seq_;
        }
        if (next_seq_ - 1 - reported_ >= kProgressStride) send_subscribe_locked();
        break;
      }
      case relay::kBroadcastAck:
        ack_broadcasts_locked(msg->ack);
        break;
      default:
        break;  // kSubscribe/kBroadcast are server-bound; ignore
    }
  }
  for (auto& [seq, value] : deliver) {
    for (const DeliverFn& fn : subscribers_) fn(seq, value);
  }
}

}  // namespace psmr::consensus
