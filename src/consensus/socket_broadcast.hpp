// Atomic broadcast over the socket transport (DESIGN.md §16).
//
// The ordering machinery (PaxosGroup over the simulated net, or
// LocalBroadcast) stays inside ONE process; what crosses process boundaries
// is the ordered stream. Two halves:
//
//   * BroadcastRelayServer — runs in the ordering process. Wraps any inner
//     AtomicBroadcast, retains its decided log, and streams it to remote
//     subscribers as kDeliver frames, replaying past a subscriber's
//     cumulative ack when that ack stalls. Remote broadcast() calls arrive
//     as kBroadcast frames, are deduplicated by (client process, request
//     id) and forwarded to the inner broadcast.
//
//   * RemoteBroadcastClient — an AtomicBroadcast implementation for replica
//     processes. subscribe/start/stop/broadcast have exactly the inner
//     semantics, so the consensus adapter, replicas, and proxies run
//     unmodified over it. Delivery is gap-free: frames arriving out of
//     order are buffered until the gap fills (the relay replays), and
//     duplicates are dropped by sequence. broadcast() retransmits its
//     kBroadcast until the relay acks the request id.
//
// Acks ride on data frames. A kBroadcast carries the client's delivered
// prefix and a kDeliver carries the relay's dedup floor for that client, so
// a client that both broadcasts and subscribes costs one frame each way per
// request. Dedicated ack frames are the idle fallback only: the client's
// periodic kSubscribe reports its progress, and the relay's tick sends one
// cumulative kBroadcastAck to a client whose floor no kDeliver carried.
//
// Loss model: transport frames may vanish (connection death sheds buffered
// frames; the send buffer sheds at its cap). Both halves therefore
// retransmit on a period — the same sender-persistence argument the paper
// makes for fair-lossy links (§II) — and dedup on the receive side, so the
// stream each subscriber observes is the inner broadcast's total order,
// exactly once.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "consensus/group.hpp"
#include "consensus/types.hpp"
#include "net/socket_transport.hpp"

namespace psmr::consensus {

// ------------------------------------------------------------ wire format --
// Relay messages ride inside transport frame payloads:
//   [u8 kind][u64 arg][u64 ack][optional payload bytes]   (native endianness
// — the transport targets same-host loopback; cross-arch wire compat is out
// of scope, matching net/framing.hpp).
namespace relay {

// Client -> relay. arg = first sequence wanted. Sent on start, on every
// retransmit period and between broadcasts (a stride of deliveries, a
// replayed duplicate) as keepalive and progress report; an arg below what
// the relay recorded means the client restarted, and its stream rewinds
// there.
constexpr std::uint8_t kSubscribe = 1;
// Relay -> client. arg = sequence, ack = the relay's dedup floor for this
// client's broadcasts, payload = value.
constexpr std::uint8_t kDeliver = 2;
// Client -> relay. arg = request id, ack = the client's highest contiguous
// delivered sequence, payload = value.
constexpr std::uint8_t kBroadcast = 3;
// Relay -> client. ack = the relay's dedup floor for this client's
// broadcasts (every request id <= ack has been received).
constexpr std::uint8_t kBroadcastAck = 4;

constexpr std::size_t kMsgHeaderBytes = 1 + 8 + 8;

inline std::vector<std::uint8_t> encode(std::uint8_t kind, std::uint64_t arg,
                                        std::uint64_t ack,
                                        const std::vector<std::uint8_t>* payload = nullptr) {
  const std::size_t payload_len = payload != nullptr ? payload->size() : 0;
  std::vector<std::uint8_t> out(kMsgHeaderBytes + payload_len);
  out[0] = kind;
  std::memcpy(out.data() + 1, &arg, 8);
  std::memcpy(out.data() + 9, &ack, 8);
  if (payload_len != 0) std::memcpy(out.data() + kMsgHeaderBytes, payload->data(), payload_len);
  return out;
}

struct Decoded {
  std::uint8_t kind = 0;
  std::uint64_t arg = 0;
  std::uint64_t ack = 0;
  Value payload;  // kDeliver / kBroadcast: the frame's own buffer, header stripped
};

/// nullopt on malformed input (too short / unknown kind) — the receiver
/// drops the message; retransmission covers anything legitimate. Takes the
/// frame by value and hands its buffer on as the payload: the value lives
/// in the allocation the frame arrived in.
inline std::optional<Decoded> decode(std::vector<std::uint8_t> bytes) {
  if (bytes.size() < kMsgHeaderBytes) return std::nullopt;
  Decoded d;
  d.kind = bytes[0];
  if (d.kind < kSubscribe || d.kind > kBroadcastAck) return std::nullopt;
  std::memcpy(&d.arg, bytes.data() + 1, 8);
  std::memcpy(&d.ack, bytes.data() + 9, 8);
  if (d.kind == kDeliver || d.kind == kBroadcast) {
    bytes.erase(bytes.begin(), bytes.begin() + kMsgHeaderBytes);
    d.payload = std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
  }
  return d;
}

}  // namespace relay

// ----------------------------------------------------------------- server --

struct RelayServerConfig {
  /// Transport process id the server listens as.
  net::ProcessId process = 0;
  /// Housekeeping period of the serve loop, and how long a subscriber's ack
  /// may stall with frames outstanding before the relay replays them.
  std::chrono::milliseconds retransmit_period{20};
  /// Max unacked kDeliver frames streamed ahead per subscriber.
  std::size_t window = 256;
};

/// Bridges an in-process AtomicBroadcast onto the socket transport. Owns a
/// serve thread; the inner broadcast's delivery callback may run on any
/// thread. Does NOT own the inner broadcast or the transport.
class BroadcastRelayServer {
 public:
  BroadcastRelayServer(net::SocketTransport& transport, AtomicBroadcast& inner,
                       RelayServerConfig config);
  ~BroadcastRelayServer();

  BroadcastRelayServer(const BroadcastRelayServer&) = delete;
  BroadcastRelayServer& operator=(const BroadcastRelayServer&) = delete;

  /// Registers the server's transport process, hooks the inner broadcast's
  /// delivery stream, and starts the serve thread. The caller starts the
  /// inner broadcast itself (it may have been started long before).
  void start();
  void stop();

  /// Decided entries retained for replay (diagnostics/tests).
  std::uint64_t log_size() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// One remote process: a subscriber to the stream, a broadcaster, or both.
  struct Peer {
    bool subscribed = false;
    std::uint64_t acked = 0;       // cumulative: all seq <= acked received
    std::uint64_t sent_until = 0;  // optimistically streamed ahead to here
    Clock::time_point acked_at{};  // when acked last moved (or streaming resumed)
    RequestDedup requests;         // its broadcasts seen so far
    std::uint64_t floor_sent = 0;  // requests.floor() as last carried to it
  };

  void serve_loop();
  void handle(net::SocketEnvelope env);
  void advance_ack_locked(Peer& peer, std::uint64_t acked);
  void tick_locked();
  void pump_locked();  // stream log entries to subscribers, up to the window

  net::SocketTransport& transport_;
  AtomicBroadcast& inner_;
  RelayServerConfig config_;
  net::SocketEndpoint* endpoint_ = nullptr;

  mutable std::mutex mu_;
  std::vector<Value> log_;  // seq s lives at log_[s - 1]
  std::unordered_map<net::ProcessId, Peer> peers_;

  bool started_ = false;
  std::atomic<bool> stop_{false};
  std::thread serve_thread_;
};

// ----------------------------------------------------------------- client --

struct RemoteClientConfig {
  /// Transport process id this client listens as.
  net::ProcessId process = 0;
  /// The relay server's transport process id.
  net::ProcessId server = 0;
  /// First sequence to deliver — > 1 after installing a snapshot covering
  /// the prefix (mirrors PaxosGroup::add_learner's from_instance).
  std::uint64_t start_seq = 1;
  /// (Re)subscribe period, and the age at which an unacked broadcast is
  /// sent again.
  std::chrono::milliseconds retransmit_period{20};
  /// Cap on buffered out-of-order deliveries; overflow is dropped and
  /// re-covered by relay retransmission.
  std::size_t reorder_buffer = 1024;
};

/// AtomicBroadcast over a relay connection — drop-in for LocalBroadcast /
/// PaxosGroup in a remote replica process. Deliveries run on the client's
/// receive thread, in sequence order, gap-free. A client with no
/// subscribers never subscribes to the stream: it only broadcasts.
///
/// The constructor registers `config.process` with the transport (binding
/// its listener), so the resolved listen_port is available for wiring
/// before start() spawns any thread.
class RemoteBroadcastClient final : public AtomicBroadcast {
 public:
  RemoteBroadcastClient(net::SocketTransport& transport, RemoteClientConfig config);
  ~RemoteBroadcastClient() override;

  void subscribe(DeliverFn fn) override;
  void start() override;
  void stop() override;
  void broadcast(Value payload) override;

  /// Next sequence this client will deliver (tests).
  std::uint64_t next_seq() const;
  /// Broadcasts the relay has not acknowledged yet (tests).
  std::size_t unacked_broadcasts() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Unacked {
    Value payload;
    Clock::time_point sent_at;
  };

  void recv_loop();
  void handle(net::SocketEnvelope env);
  void retransmit_locked();
  void send_subscribe_locked();
  void ack_broadcasts_locked(std::uint64_t floor);

  net::SocketTransport& transport_;
  RemoteClientConfig config_;
  net::SocketEndpoint* endpoint_ = nullptr;
  std::vector<DeliverFn> subscribers_;

  mutable std::mutex mu_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t reported_ = 0;  // highest delivered seq the relay was told of
  std::map<std::uint64_t, Value> reorder_;  // seq -> payload
  std::map<std::uint64_t, Unacked> unacked_broadcasts_;  // request id -> copy
  std::uint64_t next_request_id_ = 1;

  bool started_ = false;
  std::atomic<bool> stop_{false};
  std::thread recv_thread_;
};

}  // namespace psmr::consensus
