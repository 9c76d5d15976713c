// Relay wire tests: what crosses the socket between BroadcastRelayServer and
// its clients. Acks ride on data frames (a kBroadcast carries the client's
// delivered prefix, a kDeliver the relay's dedup floor), dedicated ack
// frames are an idle fallback only, and the relay replays a subscriber only
// after its ack stalls. Some tests speak the wire protocol from a bare
// transport endpoint so they can see (and drop) every frame. Everything
// waits on counters or frames with deadlines.
#include "consensus/socket_broadcast.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace psmr::consensus {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

constexpr net::ProcessId kRelay = 1;
constexpr net::ProcessId kClient = 2;

Value value_of(std::uint8_t b) {
  return std::make_shared<const std::vector<std::uint8_t>>(std::vector<std::uint8_t>{b});
}

template <typename F>
bool eventually(F cond, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return cond();
}

/// A relay over LocalBroadcast in one transport, and a second transport for
/// the client side (a RemoteBroadcastClient or a bare endpoint). Each side
/// has its own metrics registry.
struct RelayRig {
  std::shared_ptr<obs::MetricsRegistry> server_metrics = std::make_shared<obs::MetricsRegistry>();
  std::shared_ptr<obs::MetricsRegistry> client_metrics = std::make_shared<obs::MetricsRegistry>();
  std::unique_ptr<net::SocketTransport> server_transport;
  std::unique_ptr<net::SocketTransport> client_transport;
  LocalBroadcast inner;
  std::unique_ptr<BroadcastRelayServer> relay;

  explicit RelayRig(std::chrono::milliseconds period = 20ms) {
    net::SocketTransportConfig scfg;
    scfg.peers[kRelay] = {};
    scfg.metrics = server_metrics;
    server_transport = std::make_unique<net::SocketTransport>(scfg);
    RelayServerConfig rcfg;
    rcfg.process = kRelay;
    rcfg.retransmit_period = period;
    relay = std::make_unique<BroadcastRelayServer>(*server_transport, inner, rcfg);
    relay->start();
    net::SocketTransportConfig ccfg;
    ccfg.peers[kClient] = {};
    ccfg.peers[kRelay] = net::SocketAddr{"127.0.0.1", server_transport->listen_port(kRelay)};
    ccfg.metrics = client_metrics;
    client_transport = std::make_unique<net::SocketTransport>(ccfg);
  }

  /// Call once the client process is registered on client_transport.
  void wire_client() {
    server_transport->set_peer(
        kClient, net::SocketAddr{"127.0.0.1", client_transport->listen_port(kClient)});
    inner.start();
  }

  std::uint64_t frames_sent() const {
    return server_metrics->snapshot().counter("transport.frames_sent") +
           client_metrics->snapshot().counter("transport.frames_sent");
  }

  ~RelayRig() {
    relay->stop();
    inner.stop();
    client_transport->shutdown();
    server_transport->shutdown();
  }
};

/// A client that speaks the relay wire format by hand.
struct BareClient {
  RelayRig& rig;
  net::SocketEndpoint* ep;

  explicit BareClient(RelayRig& r) : rig(r), ep(r.client_transport->register_process(kClient)) {
    rig.wire_client();
  }

  void send(std::uint8_t kind, std::uint64_t arg, std::uint64_t ack, const Value& payload = {}) {
    ASSERT_TRUE(rig.client_transport->send(kClient, kRelay,
                                           relay::encode(kind, arg, ack, payload.get())));
  }

  std::optional<relay::Decoded> recv(std::chrono::milliseconds timeout = 5000ms) {
    auto env = ep->recv_for(timeout);
    if (!env) return std::nullopt;
    return relay::decode(std::move(env->msg));
  }
};

TEST(RelayWire, BroadcastAckRidesOnTheDeliverFrame) {
  RelayRig rig;
  BareClient client(rig);
  client.send(relay::kSubscribe, 1, 0);
  for (std::uint64_t id = 1; id <= 50; ++id) {
    client.send(relay::kBroadcast, id, /*ack=*/id - 1, value_of(static_cast<std::uint8_t>(id)));
    auto msg = client.recv();
    ASSERT_TRUE(msg.has_value());
    ASSERT_EQ(msg->kind, relay::kDeliver) << "no separate broadcast ack frame";
    EXPECT_EQ(msg->arg, id);  // LocalBroadcast: request id == sequence
    EXPECT_EQ(msg->ack, id);  // the dedup floor covers this request
    ASSERT_NE(msg->payload, nullptr);
    EXPECT_EQ(msg->payload->at(0), static_cast<std::uint8_t>(id));
  }
  // Report the last delivery; then the relay owes nothing: no ack frame on
  // its tick, no replay.
  client.send(relay::kSubscribe, 51, 0);
  EXPECT_FALSE(client.recv(/*timeout=*/100ms).has_value());
}

TEST(RelayWire, SteadyStateCostsTwoFramesPerBroadcast) {
  // kBroadcast one way, kDeliver the other: no per-delivery ack and no
  // per-request broadcast ack. The client's periodic kSubscribe adds a few.
  RelayRig rig;
  RemoteClientConfig cc;
  cc.process = kClient;
  cc.server = kRelay;
  RemoteBroadcastClient client(*rig.client_transport, cc);
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t delivered = 0;
  client.subscribe([&](std::uint64_t, Value) {
    std::lock_guard lk(mu);
    ++delivered;
    cv.notify_all();
  });
  rig.wire_client();
  client.start();

  // Warm up until the connections are established both ways.
  client.broadcast(value_of(0));
  {
    std::unique_lock lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, 5s, [&] { return delivered == 1; }));
  }
  const std::uint64_t frames0 = rig.frames_sent();
  constexpr std::uint64_t kBroadcasts = 1000;
  for (std::uint64_t i = 1; i <= kBroadcasts; ++i) {
    client.broadcast(value_of(static_cast<std::uint8_t>(i)));
    std::unique_lock lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, 5s, [&] { return delivered == i + 1; }));
  }
  const std::uint64_t frames = rig.frames_sent() - frames0;
  EXPECT_GE(frames, 2 * kBroadcasts);
  EXPECT_LE(frames, 2 * kBroadcasts + kBroadcasts / 10);
  EXPECT_EQ(client.unacked_broadcasts(), 0u);
  client.stop();
}

TEST(RelayWire, SubscriberThatNeverBroadcastsReportsProgressPastTheWindow) {
  // No kBroadcast carries this client's progress, so it reports it with a
  // kSubscribe every few dozen deliveries: a stream several relay windows
  // long flows without waiting for the periodic report or a stall replay.
  constexpr auto kPeriod = 2000ms;
  RelayRig rig(kPeriod);
  RemoteClientConfig cc;
  cc.process = kClient;
  cc.server = kRelay;
  cc.retransmit_period = kPeriod;
  RemoteBroadcastClient client(*rig.client_transport, cc);
  std::atomic<std::uint64_t> delivered{0};
  client.subscribe([&](std::uint64_t, Value) { delivered.fetch_add(1); });
  rig.wire_client();
  client.start();
  ASSERT_TRUE(eventually([&] {
    return rig.server_metrics->snapshot().counter("transport.frames_received") >= 1;
  }));
  constexpr std::uint64_t kValues = 4 * 256;  // four default relay windows
  for (std::uint64_t i = 0; i < kValues; ++i) {
    rig.inner.broadcast(value_of(static_cast<std::uint8_t>(i)));
  }
  // Within one period: the periodic report and the stall replay never ran.
  ASSERT_TRUE(eventually([&] { return delivered.load() == kValues; }, kPeriod * 3 / 4));
  EXPECT_GE(rig.client_metrics->snapshot().counter("transport.frames_sent"), kValues / 64);
  client.stop();
}

TEST(RelayWire, BroadcastOnlyClientStopsRetransmittingAfterTheTickAck) {
  // A client with no subscribers never subscribes, so no kDeliver carries
  // its dedup floor: the relay's tick acks its broadcasts in one frame.
  RelayRig rig;
  std::atomic<std::uint64_t> ordered{0};
  rig.inner.subscribe([&](std::uint64_t, Value) { ordered.fetch_add(1); });
  RemoteClientConfig cc;
  cc.process = kClient;
  cc.server = kRelay;
  RemoteBroadcastClient client(*rig.client_transport, cc);
  rig.wire_client();
  client.start();
  for (std::uint8_t i = 1; i <= 5; ++i) client.broadcast(value_of(i));
  ASSERT_TRUE(eventually([&] { return client.unacked_broadcasts() == 0; }));
  EXPECT_EQ(ordered.load(), 5u);  // retransmissions, if any, were deduplicated
  const auto client_frames = [&] {
    return rig.client_metrics->snapshot().counter("transport.frames_sent");
  };
  const std::uint64_t sent = client_frames();
  // Several retransmit periods: nothing left to resend, nothing to report.
  std::this_thread::sleep_for(150ms);
  EXPECT_EQ(client_frames(), sent);
  // Only tick acks went to the client (one, or two if a tick fell between
  // the broadcasts) — no kDeliver stream it never asked for.
  const std::uint64_t to_client = rig.server_metrics->snapshot().counter("transport.frames_sent");
  EXPECT_GE(to_client, 1u);
  EXPECT_LE(to_client, 2u);
  client.stop();
}

TEST(RelayWire, DroppedDeliverIsReplayedOnlyAfterTheAckStalls) {
  constexpr auto kPeriod = 100ms;
  RelayRig rig(kPeriod);
  BareClient client(rig);
  client.send(relay::kSubscribe, 1, 0);
  // Wait for the relay to register the subscriber (its reply to nothing is
  // silence), then order one value.
  ASSERT_TRUE(eventually([&] {
    return rig.server_metrics->snapshot().counter("transport.frames_received") >= 1;
  }));
  rig.inner.broadcast(value_of(0x42));

  auto first = client.recv();
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->kind, relay::kDeliver);
  ASSERT_EQ(first->arg, 1u);
  const auto dropped_at = Clock::now();  // "drop" it: no progress report

  auto replay = client.recv();
  ASSERT_TRUE(replay.has_value());
  const auto replayed_after = Clock::now() - dropped_at;
  EXPECT_EQ(replay->kind, relay::kDeliver);
  EXPECT_EQ(replay->arg, 1u);
  EXPECT_EQ(replay->payload->at(0), 0x42);
  // Not before the ack had stalled for a retransmit period (less the time
  // the first copy spent in flight).
  EXPECT_GE(replayed_after, kPeriod / 2);

  // Acknowledge it: the replays stop.
  client.send(relay::kSubscribe, 2, 0);
  while (auto more = client.recv(/*timeout=*/3 * kPeriod)) {
    // At most the replays already in flight before the report landed.
    EXPECT_EQ(more->arg, 1u);
  }
}

}  // namespace
}  // namespace psmr::consensus
