// Atomic-broadcast substrate comparison: the in-process LocalBroadcast
// reference vs the full Multi-Paxos stack (§VI context: the paper used Ring
// Paxos as its transport and Multi-Paxos stands in for it here; our figure
// benches use the local orderer so the SCHEDULER is what is measured — this
// bench quantifies what the consensus substrate itself can sustain on this
// host, wall-clock, every role timesharing the host's CPUs).
//
// `--socket` adds the socket-transport rows (DESIGN.md §16): the same
// substrates reached through a BroadcastRelayServer over real loopback TCP
// via RemoteBroadcastClient, quantifying what the relay + framing + epoll
// path costs versus the in-process call. Also writes METRICS_transport.json
// (psmr.metrics.v1 carrying the transport.* family). `--smoke` shrinks the
// message count for CI.
//
// Env: PSMR_MSGS=<n> messages per configuration (default 4000).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include "consensus/group.hpp"
#include "consensus/socket_broadcast.hpp"
#include "net/socket_transport.hpp"
#include "obs/metrics.hpp"
#include "stats/histogram.hpp"
#include "stats/table.hpp"
#include "util/time.hpp"

using namespace std::chrono_literals;
using psmr::stats::Table;

namespace {

struct RunResult {
  double kmsgs_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

RunResult run(psmr::consensus::AtomicBroadcast& ab, std::uint64_t messages,
              std::size_t payload_bytes) {
  std::atomic<std::uint64_t> delivered{0};
  // Latency: stamp the send time inside the payload.
  psmr::stats::Histogram latency;
  std::mutex lat_mu;
  ab.subscribe([&](std::uint64_t, psmr::consensus::Value v) {
    std::uint64_t sent_at = 0;
    if (v && v->size() >= sizeof(sent_at)) {
      std::memcpy(&sent_at, v->data(), sizeof(sent_at));
      std::lock_guard lk(lat_mu);
      latency.record(psmr::util::now_ns() - sent_at);
    }
    delivered.fetch_add(1, std::memory_order_relaxed);
  });
  ab.start();

  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < messages; ++i) {
    auto payload = std::make_shared<std::vector<std::uint8_t>>(
        std::max(payload_bytes, sizeof(std::uint64_t)));
    const std::uint64_t now = psmr::util::now_ns();
    std::memcpy(payload->data(), &now, sizeof(now));
    ab.broadcast(std::move(payload));
    // Light pacing keeps the proposer pipeline inside its window.
    if (i % 128 == 127) {
      while (delivered.load(std::memory_order_relaxed) + 512 < i) {
        std::this_thread::sleep_for(100us);
      }
    }
  }
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (delivered.load() < messages && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  ab.stop();

  RunResult r;
  r.kmsgs_per_sec = static_cast<double>(delivered.load()) / secs / 1000.0;
  r.p50_us = static_cast<double>(latency.p50()) / 1000.0;
  r.p99_us = static_cast<double>(latency.p99()) / 1000.0;
  return r;
}

/// Runs `inner` behind a relay server on one loopback transport and drives
/// it through a RemoteBroadcastClient on another — the full remote-replica
/// path (broadcast and delivery each cross a TCP connection). Both
/// transports share `reg`, so one transport.* export covers the pair.
RunResult run_over_socket(psmr::consensus::AtomicBroadcast& inner,
                          std::uint64_t messages, std::size_t payload_bytes,
                          std::shared_ptr<psmr::obs::MetricsRegistry> reg) {
  namespace net = psmr::net;
  namespace consensus = psmr::consensus;
  net::SocketTransportConfig scfg;
  scfg.peers[1] = {};
  scfg.metrics = reg;
  net::SocketTransport server_transport(scfg);
  consensus::RelayServerConfig rcfg;
  rcfg.process = 1;
  consensus::BroadcastRelayServer relay(server_transport, inner, rcfg);
  relay.start();

  net::SocketTransportConfig ccfg;
  ccfg.peers[2] = {};
  ccfg.peers[1] = net::SocketAddr{"127.0.0.1", server_transport.listen_port(1)};
  ccfg.metrics = reg;
  net::SocketTransport client_transport(ccfg);
  consensus::RemoteClientConfig cc;
  cc.process = 2;
  cc.server = 1;
  consensus::RemoteBroadcastClient client(client_transport, cc);
  server_transport.set_peer(2, net::SocketAddr{"127.0.0.1", client_transport.listen_port(2)});

  inner.start();
  const RunResult r = run(client, messages, payload_bytes);
  relay.stop();
  inner.stop();
  client_transport.shutdown();
  server_transport.shutdown();
  return r;
}

int write_metrics_export(const char* path, const psmr::obs::Snapshot& snap) {
  FILE* mf = std::fopen(path, "w");
  if (mf == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return 1;
  }
  const std::string json = snap.to_json();
  std::fwrite(json.data(), 1, json.size(), mf);
  std::fputc('\n', mf);
  std::fclose(mf);
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t messages = 4000;
  if (const char* s = std::getenv("PSMR_MSGS")) messages = std::strtoull(s, nullptr, 10);
  bool socket_rows = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") == 0) socket_rows = true;
    if (std::strcmp(argv[i], "--smoke") == 0) messages = 500;
  }

  auto transport_reg = std::make_shared<psmr::obs::MetricsRegistry>();
  std::printf("Atomic broadcast substrates (%llu messages, 1 learner, wall clock)\n\n",
              static_cast<unsigned long long>(messages));
  Table table({"Substrate", "Payload (B)", "Throughput (kMsgs/s)", "p50 lat (us)",
               "p99 lat (us)"});

  for (std::size_t payload : {64u, 4096u}) {
    {
      psmr::consensus::LocalBroadcast lb;
      const auto r = run(lb, messages, payload);
      table.add_row({"LocalBroadcast (reference)", Table::fmt_int(payload),
                     Table::fmt(r.kmsgs_per_sec, 1), Table::fmt(r.p50_us, 1),
                     Table::fmt(r.p99_us, 1)});
    }
    {
      psmr::consensus::GroupConfig cfg;
      psmr::consensus::PaxosGroup group(cfg);
      const auto r = run(group, messages, payload);
      table.add_row({"Multi-Paxos (3 acceptors, fan-out)", Table::fmt_int(payload),
                     Table::fmt(r.kmsgs_per_sec, 1), Table::fmt(r.p50_us, 1),
                     Table::fmt(r.p99_us, 1)});
    }
    if (socket_rows) {
      {
        psmr::consensus::LocalBroadcast lb;
        const auto r = run_over_socket(lb, messages, payload, transport_reg);
        table.add_row({"Relay/socket (LocalBroadcast inner)", Table::fmt_int(payload),
                       Table::fmt(r.kmsgs_per_sec, 1), Table::fmt(r.p50_us, 1),
                       Table::fmt(r.p99_us, 1)});
      }
      {
        psmr::consensus::GroupConfig cfg;
        psmr::consensus::PaxosGroup group(cfg);
        const auto r = run_over_socket(group, messages, payload, transport_reg);
        table.add_row({"Relay/socket (Multi-Paxos inner)", Table::fmt_int(payload),
                       Table::fmt(r.kmsgs_per_sec, 1), Table::fmt(r.p50_us, 1),
                       Table::fmt(r.p99_us, 1)});
      }
    }
  }
  if (socket_rows &&
      write_metrics_export("METRICS_transport.json", transport_reg->snapshot()) != 0) {
    return 1;
  }
  table.print();
  std::printf("\nNote: %u CPU(s) on this host; every role (clients, proposers, acceptors,\n"
              "learners, relay) timeshares them, so these are lower bounds on what the\n"
              "protocol code sustains with dedicated cores.\n",
              std::thread::hardware_concurrency());
  return 0;
}
