// Socket-backed transport (DESIGN.md §16): the real-network sibling of the
// in-process simulated psmr::net::Network.
//
// Same interface shape — register_process / send / send_to_all / shutdown on
// the transport, recv / recv_for / recv_until / try_recv on the endpoint
// (the endpoint type IS net::Endpoint<std::vector<uint8_t>>, shared with the
// simulated network) — so code written against the simulated net's message
// loop runs unmodified over TCP. Messages are opaque byte payloads; for SMR
// traffic they carry the codec-v2 batch layout, and this layer adds only the
// outer length-prefix framing (net/framing.hpp).
//
// Topology: a static ProcessId -> host:port map. Every locally registered
// process id owns a listening socket; one outbound connection per remote
// peer is shared by all local senders (frames carry from/to, so the stream
// needs no per-sender state). Connections are non-blocking, serviced by one
// IO thread over a level-triggered epoll (net/poller.hpp), with short-read /
// short-write reassembly and per-peer reconnect under decorrelated-jitter
// backoff. A send to a connected peer with nothing queued is written by the
// caller's thread (write-through); the IO thread only finishes what the
// socket would not take at once, and does the connecting and reading. Delivery guarantees match the simulated net's fair-lossy model:
// frames buffered on a connection that dies are dropped, and the SMR layer's
// retry/dedup path (proxy retransmission + replica session windows) restores
// exactly-once end to end — identical to how it already absorbs simulated
// drops.
//
// Determinism: none. Real sockets arrive when the kernel says so, which is
// why the deterministic test tiers stay on the simulated Network and this
// transport is exercised by loopback integration tests only.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/framing.hpp"
#include "net/network.hpp"
#include "net/poller.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace psmr::net {

/// Where a process listens. Loopback by default — CI never leaves the host.
struct SocketAddr {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral (resolved at register_process)
};

struct SocketTransportConfig {
  /// Full cluster map: every process id this transport may send to or
  /// register locally. Ids absent from the map are unknown destinations
  /// (send returns false), mirroring the simulated net.
  std::unordered_map<ProcessId, SocketAddr> peers;
  /// Per-peer cap on buffered unsent bytes. At the cap new frames are shed
  /// (counted in transport.sends_dropped) — legal on a fair-lossy link; the
  /// SMR retry path re-covers them.
  std::size_t send_buffer_bytes = std::size_t{8} << 20;
  /// Reconnect backoff: decorrelated jitter, next = min(cap, U[base, 3*prev]).
  std::chrono::milliseconds reconnect_base{10};
  std::chrono::milliseconds reconnect_cap{1000};
  /// Seeds the backoff jitter RNG (determinism of the schedule only; socket
  /// readiness itself is inherently nondeterministic).
  std::uint64_t seed = 1;
  /// Registry for transport.* metrics; a private one is created when null.
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

/// Byte-payload message type of the socket transport.
using SocketMessage = std::vector<std::uint8_t>;
using SocketEndpoint = Endpoint<SocketMessage>;
using SocketEnvelope = Envelope<SocketMessage>;

class SocketTransport {
 public:
  explicit SocketTransport(SocketTransportConfig config);
  ~SocketTransport();

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Binds + listens on the id's configured address and returns its receive
  /// endpoint (valid until the transport is destroyed). With port 0 the
  /// kernel picks one — read it back via listen_port(). Must be called
  /// before traffic addressed to the id arrives.
  SocketEndpoint* register_process(ProcessId id);

  /// The resolved listening port of a locally registered id (0 if unknown).
  std::uint16_t listen_port(ProcessId id) const;

  /// Adds or replaces a remote peer's address after construction — lets
  /// tests wire two ephemeral-port transports to each other. Only affects
  /// connections established after the call.
  void set_peer(ProcessId id, SocketAddr addr);

  /// Sends msg from -> to. Locally registered destinations are delivered
  /// straight into the inbox (no socket). A remote frame is written on the
  /// caller's thread when its connection is up and idle; otherwise, and for
  /// whatever a short write leaves, it is queued on the peer connection for
  /// the IO thread (which also owns connect/reconnect).
  /// Returns false only for unknown destinations or after shutdown —
  /// best-effort queueing returns true even when the frame is shed at the
  /// buffer cap, exactly like the simulated net's fair-lossy send.
  bool send(ProcessId from, ProcessId to, SocketMessage msg);

  void send_to_all(ProcessId from, const std::vector<ProcessId>& group,
                   const SocketMessage& msg);

  /// Stops the IO thread, closes every socket, and closes every local
  /// inbox (blocked recv calls return nullopt). Idempotent.
  void shutdown();

  /// transport.* metrics snapshot (DESIGN.md §16).
  obs::Snapshot stats() const { return metrics_->snapshot(); }
  std::shared_ptr<obs::MetricsRegistry> metrics() const { return metrics_; }

 private:
  struct Listener {
    int fd = -1;
    ProcessId id = 0;
    std::uint16_t port = 0;
  };

  /// Inbound byte stream (accepted socket): read-only, one FrameReader.
  struct Inbound {
    int fd = -1;
    FrameReader reader;
  };

  /// Outbound connection to one remote peer: write-only.
  struct Outbound {
    enum class State { kIdle, kBackoff, kConnecting, kConnected };
    ProcessId peer = 0;
    int fd = -1;
    State state = State::kIdle;
    std::deque<std::vector<std::uint8_t>> pending;  // framed, unsent
    std::size_t pending_bytes = 0;
    std::size_t first_offset = 0;  // partially written head frame
    std::chrono::steady_clock::time_point backoff_until{};
    std::chrono::milliseconds last_backoff{0};
    bool was_connected = false;  // distinguishes reconnects from first connects
  };

  void io_loop();
  void wake();
  void start_connect(Outbound& ob);
  /// Write-through: one non-blocking sendmsg of header + payload. False when
  /// the frame was not written whole; `written` says how much of it was.
  bool write_through(Outbound& ob, ProcessId from, ProcessId to, const SocketMessage& msg,
                     std::size_t& written);
  void flush_outbound(Outbound& ob);
  void fail_outbound(Outbound& ob);
  void close_outbound_fd(Outbound& ob);
  void accept_ready(Listener& l);
  /// Drains readable bytes; false = connection must be closed (EOF, hard
  /// error, or protocol error).
  bool read_ready(Inbound& in);
  void deliver_frame(Frame&& f);
  std::chrono::milliseconds next_backoff(Outbound& ob);

  SocketTransportConfig config_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter* frames_sent_;
  obs::Counter* frames_received_;
  obs::Counter* bytes_sent_;
  obs::Counter* write_through_frames_;
  obs::Counter* bytes_received_;
  obs::Counter* local_deliveries_;
  obs::Counter* sends_dropped_;
  obs::Counter* frames_misrouted_;
  obs::Counter* protocol_errors_;
  obs::Counter* connects_;
  obs::Counter* reconnects_;
  obs::Counter* connect_failures_;
  obs::Counter* accepts_;
  obs::Gauge* send_queue_bytes_;

  mutable std::mutex mu_;
  std::unordered_map<ProcessId, std::unique_ptr<SocketEndpoint>> endpoints_;
  std::unordered_map<ProcessId, Listener> listeners_;
  std::unordered_map<ProcessId, Outbound> outbound_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Inbound>> inbound_;
  std::uint64_t next_inbound_id_ = 0;
  std::size_t total_pending_bytes_ = 0;
  util::Xoshiro256 rng_;
  bool shutdown_ = false;

  int wake_fd_ = -1;
  Poller poller_;
  std::thread io_thread_;
};

}  // namespace psmr::net
