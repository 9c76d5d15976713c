// Loopback integration tests for the socket transport. These are the only
// tier-1 tests that touch real sockets; everything stays on 127.0.0.1 with
// kernel-assigned ports, so parallel ctest runs cannot collide.
#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace psmr::net {
namespace {

using namespace std::chrono_literals;

SocketMessage bytes_of(const std::string& s) {
  return SocketMessage(s.begin(), s.end());
}

std::string string_of(const SocketMessage& m) {
  return std::string(m.begin(), m.end());
}

/// Two transports, processes 1 and 2, wired to each other's ephemeral
/// listening ports.
struct Pair {
  std::unique_ptr<SocketTransport> a;
  std::unique_ptr<SocketTransport> b;
  SocketEndpoint* ep1 = nullptr;
  SocketEndpoint* ep2 = nullptr;

  Pair() {
    SocketTransportConfig cfg;
    cfg.peers[1] = {};
    cfg.peers[2] = {};
    a = std::make_unique<SocketTransport>(cfg);
    b = std::make_unique<SocketTransport>(cfg);
    ep1 = a->register_process(1);
    ep2 = b->register_process(2);
    a->set_peer(2, SocketAddr{"127.0.0.1", b->listen_port(2)});
    b->set_peer(1, SocketAddr{"127.0.0.1", a->listen_port(1)});
  }
};

TEST(SocketTransport, LoopbackDeliversBothDirections) {
  Pair p;
  ASSERT_TRUE(p.a->send(1, 2, bytes_of("ping")));
  auto env = p.ep2->recv_for(5s);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->from, 1u);
  EXPECT_EQ(env->to, 2u);
  EXPECT_EQ(string_of(env->msg), "ping");

  ASSERT_TRUE(p.b->send(2, 1, bytes_of("pong")));
  env = p.ep1->recv_for(5s);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(string_of(env->msg), "pong");
}

TEST(SocketTransport, LocalDestinationBypassesSockets) {
  SocketTransportConfig cfg;
  cfg.peers[1] = {};
  cfg.peers[2] = {};
  SocketTransport t(cfg);
  t.register_process(1);
  auto* ep2 = t.register_process(2);
  ASSERT_TRUE(t.send(1, 2, bytes_of("local")));
  auto env = ep2->recv_for(1s);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(string_of(env->msg), "local");
  EXPECT_EQ(t.stats().counter("transport.local_deliveries"), 1u);
  EXPECT_EQ(t.stats().counter("transport.frames_sent"), 0u);
}

TEST(SocketTransport, UnknownDestinationReturnsFalse) {
  SocketTransportConfig cfg;
  cfg.peers[1] = {};
  SocketTransport t(cfg);
  t.register_process(1);
  EXPECT_FALSE(t.send(1, 99, bytes_of("void")));
}

TEST(SocketTransport, LargeMessageReassembledAcrossShortReads) {
  // 4 MiB forces many partial reads and writes through the 64 KiB IO
  // buffer; the payload must arrive byte-identical.
  Pair p;
  SocketMessage big(4u << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  ASSERT_TRUE(p.a->send(1, 2, big));
  auto env = p.ep2->recv_for(10s);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->msg, big);
}

TEST(SocketTransport, ManyMessagesArriveInSendOrder) {
  // One peer connection is a single TCP stream: per-sender FIFO holds.
  Pair p;
  constexpr int kMessages = 500;
  for (int i = 0; i < kMessages; ++i) {
    ASSERT_TRUE(p.a->send(1, 2, bytes_of(std::to_string(i))));
  }
  for (int i = 0; i < kMessages; ++i) {
    auto env = p.ep2->recv_for(5s);
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(string_of(env->msg), std::to_string(i));
  }
}

TEST(SocketTransport, IdleConnectionSendsOnTheCallersThread) {
  // Once the connection is up and drained, a send is written by the caller
  // (write-through), with no IO-thread hop; the byte and frame counters
  // count it exactly like an IO-thread write.
  Pair p;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  const auto send_one = [&](const std::string& text) {
    ASSERT_TRUE(p.a->send(1, 2, bytes_of(text)));
    ++frames;
    bytes += kFrameHeaderBytes + text.size();
    auto env = p.ep2->recv_for(5s);
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(string_of(env->msg), text);
  };
  send_one("connect");
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  for (int i = 0; p.a->stats().counter("transport.write_through_frames") == 0 &&
                  std::chrono::steady_clock::now() < deadline;
       ++i) {
    send_one(std::string("m").append(std::to_string(i)));
  }
  EXPECT_GE(p.a->stats().counter("transport.write_through_frames"), 1u);
  // frames_sent is bumped after bytes_sent: once it is complete, so is bytes.
  while (p.a->stats().counter("transport.frames_sent") < frames &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(p.a->stats().counter("transport.frames_sent"), frames);
  EXPECT_EQ(p.a->stats().counter("transport.bytes_sent"), bytes);
}

TEST(SocketTransport, ShortWriteThroughIsFinishedByTheIoThreadInOrder) {
  // The peer is a bare socket that reads nothing until told, so the kernel
  // buffers fill: the write-through of a frame far larger than them must
  // stop short, queue the rest, and let the IO thread finish it once the
  // peer reads — with the frames sent after it still arriving behind it.
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = 0;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr), 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(sa);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&sa), &len), 0);

  SocketTransportConfig cfg;
  cfg.peers[1] = {};
  cfg.peers[2] = SocketAddr{"127.0.0.1", ntohs(sa.sin_port)};
  cfg.send_buffer_bytes = std::size_t{64} << 20;
  SocketTransport t(cfg);
  t.register_process(1);
  const auto counter = [&](const char* name) { return t.stats().counter(name); };

  // First frame: the IO thread connects and writes it.
  ASSERT_TRUE(t.send(1, 2, bytes_of("first")));
  const int peer = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(peer, 0);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (counter("transport.frames_sent") < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(counter("transport.frames_sent"), 1u);

  SocketMessage big(std::size_t{32} << 20);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 13 + 1);
  const std::uint64_t bytes_before = counter("transport.bytes_sent");
  ASSERT_TRUE(t.send(1, 2, big));
  // The caller wrote part of it; the unread peer stalls the rest.
  const std::uint64_t written = counter("transport.bytes_sent") - bytes_before;
  EXPECT_GT(written, 0u);
  EXPECT_LT(written, kFrameHeaderBytes + big.size());
  EXPECT_EQ(counter("transport.write_through_frames"), 0u);
  constexpr int kAfter = 100;
  for (int i = 0; i < kAfter; ++i) ASSERT_TRUE(t.send(1, 2, bytes_of(std::to_string(i))));

  // Now read: every frame, whole and in send order.
  timeval tv{10, 0};
  ::setsockopt(peer, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  FrameReader reader;
  std::vector<Frame> frames;
  std::vector<std::uint8_t> buf(1 << 16);
  while (frames.size() < 2 + kAfter) {
    const ssize_t n = ::recv(peer, buf.data(), buf.size(), 0);
    ASSERT_GT(n, 0) << "peer stream ended early";
    ASSERT_TRUE(reader.feed(std::span<const std::uint8_t>(buf.data(), static_cast<std::size_t>(n))));
    while (auto f = reader.next()) frames.push_back(std::move(*f));
  }
  EXPECT_EQ(string_of(frames[0].payload), "first");
  EXPECT_TRUE(frames[1].payload == big);
  for (int i = 0; i < kAfter; ++i) {
    EXPECT_EQ(string_of(frames[2 + static_cast<std::size_t>(i)].payload), std::to_string(i));
  }
  EXPECT_EQ(counter("transport.frames_sent"), 2u + kAfter);
  t.shutdown();
  ::close(peer);
  ::close(listener);
}

TEST(SocketTransport, ReconnectsAfterReceiverRestart) {
  SocketTransportConfig cfg;
  cfg.peers[1] = {};
  cfg.peers[2] = {};
  auto a = std::make_unique<SocketTransport>(cfg);
  auto* ep1 = a->register_process(1);
  (void)ep1;
  auto b = std::make_unique<SocketTransport>(cfg);
  auto* ep2_old = b->register_process(2);
  const std::uint16_t port_b = b->listen_port(2);
  a->set_peer(2, SocketAddr{"127.0.0.1", port_b});
  b->set_peer(1, SocketAddr{"127.0.0.1", a->listen_port(1)});

  // Establish the connection end to end.
  ASSERT_TRUE(a->send(1, 2, bytes_of("pre-crash")));
  ASSERT_TRUE(ep2_old->recv_for(5s).has_value());
  b->shutdown();  // receiver dies; frames in flight are legally lost
  b.reset();

  // Restart the receiver on the SAME port (SO_REUSEADDR makes the rebind
  // immediate) and keep retransmitting until a frame lands — exactly how
  // the SMR retry path drives this transport.
  SocketTransportConfig cfg2;
  cfg2.peers[1] = SocketAddr{"127.0.0.1", a->listen_port(1)};
  cfg2.peers[2] = SocketAddr{"127.0.0.1", port_b};
  SocketTransport b2(cfg2);
  auto* ep2 = b2.register_process(2);

  bool got = false;
  for (int attempt = 0; attempt < 400 && !got; ++attempt) {
    (void)a->send(1, 2, bytes_of("post-restart"));
    if (auto env = ep2->recv_for(50ms)) {
      EXPECT_EQ(string_of(env->msg), "post-restart");
      got = true;
    }
  }
  EXPECT_TRUE(got);
  // The sender observed at least one reconnect (the first connect counts
  // into transport.connects, later ones into transport.reconnects).
  EXPECT_GE(a->stats().counter("transport.reconnects"), 1u);
}

TEST(SocketTransport, SendBufferCapShedsInsteadOfGrowing) {
  // No listener on the peer port: frames pile up in the send buffer until
  // the cap, after which sends shed (still returning true — fair-lossy).
  SocketTransportConfig cfg;
  cfg.peers[1] = {};
  cfg.peers[2] = SocketAddr{"127.0.0.1", 1};  // reserved port: connect fails
  cfg.send_buffer_bytes = 64 * 1024;
  SocketTransport t(cfg);
  t.register_process(1);
  SocketMessage chunk(8 * 1024, 0x7f);
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(t.send(1, 2, chunk));
  }
  EXPECT_GT(t.stats().counter("transport.sends_dropped"), 0u);
}

TEST(SocketTransport, ShutdownClosesEndpointsIdempotently) {
  SocketTransportConfig cfg;
  cfg.peers[1] = {};
  SocketTransport t(cfg);
  auto* ep = t.register_process(1);
  t.shutdown();
  t.shutdown();  // idempotent
  EXPECT_FALSE(ep->recv_for(100ms).has_value());
  EXPECT_FALSE(t.send(1, 1, bytes_of("late")));
}

TEST(SocketTransport, StatsExposeTransportMetricNames) {
  // DESIGN.md §16 metric surface: the names exist from construction so the
  // metrics fixture (tools/check_metrics_json.py --require=transport.*) can
  // rely on them.
  SocketTransportConfig cfg;
  cfg.peers[1] = {};
  SocketTransport t(cfg);
  t.register_process(1);
  const auto snap = t.stats();
  for (const char* name :
       {"transport.frames_sent", "transport.frames_received", "transport.bytes_sent",
        "transport.bytes_received", "transport.local_deliveries",
        "transport.sends_dropped", "transport.frames_misrouted",
        "transport.protocol_errors", "transport.connects", "transport.reconnects",
        "transport.connect_failures", "transport.accepts",
        "transport.write_through_frames"}) {
    EXPECT_TRUE(snap.has_counter(name)) << name;
  }
}

}  // namespace
}  // namespace psmr::net
