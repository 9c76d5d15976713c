// Multi-process PSMR over the socket transport (DESIGN.md §16).
//
// One binary, four OS processes on loopback:
//
//   parent   — the ordering + proxy process: runs the atomic broadcast and a
//              BroadcastRelayServer, builds a fixed deterministic workload of
//              command batches and broadcasts them (the proxy role);
//   3 forks  — replica processes: each runs a SocketTransport,
//              RemoteBroadcastClient, ConsensusAdapter, Replica and KvStore —
//              the exact stack the in-process examples run over the simulated
//              network, unmodified.
//
// The parent also executes the same workload through a plain in-process
// LocalBroadcast stack (the simulated-net reference) and checks that every
// replica process reports the identical KV fingerprint. Children are forked
// BEFORE any transport exists, so no thread ever crosses a fork. Ports are
// kernel-assigned and exchanged over pipes; nothing leaves 127.0.0.1.
//
// Exit status 0 iff all four fingerprints match. Every other outcome has its
// own status and a line on stderr: 1 fingerprint mismatch, 2 pipe or fork
// failure, 3 a replica process not fully delivered within its cap, 4 the
// in-process reference not fully delivered within its cap.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "consensus/group.hpp"
#include "consensus/socket_broadcast.hpp"
#include "kvstore/kvstore.hpp"
#include "net/socket_transport.hpp"
#include "smr/consensus_adapter.hpp"
#include "smr/replica.hpp"

using namespace std::chrono_literals;
namespace net = psmr::net;
namespace consensus = psmr::consensus;
namespace smr = psmr::smr;
namespace kv = psmr::kv;

namespace {

constexpr net::ProcessId kRelayId = 1;
constexpr int kReplicas = 3;
constexpr std::uint64_t kBatches = 80;
constexpr std::uint64_t kPerBatch = 5;
constexpr std::uint64_t kTotalCommands = kBatches * kPerBatch;
constexpr auto kDeliveryCap = 60s;

constexpr int kExitMismatch = 1;
constexpr int kExitPipe = 2;
constexpr int kExitReplicaTimeout = 3;
constexpr int kExitReferenceTimeout = 4;

smr::Command make_cmd(std::uint64_t seq) {
  smr::Command c;
  c.type = smr::OpType::kUpdate;
  c.key = seq % 128;  // overlapping keys: total order decides the winner
  c.value = seq * 13 + 1;
  c.client_id = 3;
  c.sequence = seq;  // tracked -> exactly-once session window applies
  return c;
}

std::vector<smr::Command> batch_commands(std::uint64_t index) {
  std::vector<smr::Command> cmds;
  for (std::uint64_t j = 0; j < kPerBatch; ++j) {
    cmds.push_back(make_cmd(index * kPerBatch + j + 1));
  }
  return cmds;
}

bool read_exact(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// Waits until `replica` has consumed every broadcast batch — handed to its
/// scheduler, dropped as a duplicate or rejected at delivery
/// (Replica::batches_consumed) — then for the scheduler to go idle. This
/// counts delivery progress, not executed commands, which a deduplicated or
/// failed command never adds to. When kDeliveryCap expires first, names the
/// shortfall on stderr and returns false.
bool await_delivery(smr::Replica& replica, const std::string& who) {
  const auto deadline = std::chrono::steady_clock::now() + kDeliveryCap;
  std::uint64_t n = replica.batches_consumed();
  while (n != kBatches && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
    n = replica.batches_consumed();
  }
  if (n != kBatches) {
    std::fprintf(stderr, "%s: consumed %llu of %llu batches within %llds\n",
                 who.c_str(), static_cast<unsigned long long>(n),
                 static_cast<unsigned long long>(kBatches),
                 static_cast<long long>(kDeliveryCap.count()));
    return false;
  }
  replica.wait_idle();
  return true;
}

bool write_exact(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (n > 0) {
    const ssize_t r = ::write(fd, p, n);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// Replica process body: builds the remote stack, executes the replicated
/// workload, reports its listening port (for the relay's peer map) and the
/// final store digest through the pipes. Never returns.
[[noreturn]] void run_replica(net::ProcessId id, int port_in_fd, int port_out_fd,
                              int digest_out_fd) {
  std::uint16_t relay_port = 0;
  if (!read_exact(port_in_fd, &relay_port, sizeof(relay_port))) ::_exit(kExitPipe);

  net::SocketTransportConfig tcfg;
  tcfg.peers[id] = net::SocketAddr{"127.0.0.1", 0};
  tcfg.peers[kRelayId] = net::SocketAddr{"127.0.0.1", relay_port};
  net::SocketTransport transport(tcfg);

  consensus::RemoteClientConfig ccfg;
  ccfg.process = id;
  ccfg.server = kRelayId;
  consensus::RemoteBroadcastClient client(transport, ccfg);
  const std::uint16_t own_port = transport.listen_port(id);
  if (!write_exact(port_out_fd, &own_port, sizeof(own_port))) ::_exit(kExitPipe);

  kv::KvStore store;
  kv::KvService service(store);
  smr::BitmapConfig bitmap;
  bitmap.bits = 102400;
  smr::ConsensusAdapter adapter(client, bitmap);
  smr::Replica::Config rcfg;
  rcfg.replica_id = id;
  rcfg.scheduler.workers = 2;
  rcfg.scheduler.mode = psmr::core::ConflictMode::kKeysNested;
  smr::Replica replica(rcfg, service, [](const smr::Response&) {});
  adapter.subscribe_replica(
      [&](smr::BatchPtr b) { replica.deliver(std::move(b)); });
  client.start();
  replica.start();

  if (!await_delivery(replica, "replica " + std::to_string(id))) {
    ::_exit(kExitReplicaTimeout);
  }
  const std::uint64_t digest = store.digest();
  if (!write_exact(digest_out_fd, &digest, sizeof(digest))) ::_exit(kExitPipe);

  client.stop();
  replica.stop();
  transport.shutdown();
  ::_exit(0);
}

/// The simulated-net reference: the identical workload through the plain
/// in-process stack. Its digest is the fingerprint the socket cluster must
/// reproduce; nullopt if the stack did not consume every batch in time.
std::optional<std::uint64_t> reference_digest() {
  consensus::LocalBroadcast inner;
  kv::KvStore store;
  kv::KvService service(store);
  smr::BitmapConfig bitmap;
  bitmap.bits = 102400;
  smr::ConsensusAdapter adapter(inner, bitmap);
  smr::Replica::Config rcfg;
  rcfg.scheduler.workers = 2;
  rcfg.scheduler.mode = psmr::core::ConflictMode::kKeysNested;
  smr::Replica replica(rcfg, service, [](const smr::Response&) {});
  adapter.subscribe_replica(
      [&](smr::BatchPtr b) { replica.deliver(std::move(b)); });
  inner.start();
  replica.start();
  for (std::uint64_t i = 0; i < kBatches; ++i) {
    adapter.broadcast(std::make_unique<smr::Batch>(smr::Batch(batch_commands(i))));
  }
  const bool delivered = await_delivery(replica, "reference");
  replica.stop();
  inner.stop();
  if (!delivered) return std::nullopt;
  return store.digest();
}

}  // namespace

int main() {
  // Per child: parent -> child carries the relay port, child -> parent
  // carries the child's listening port then its final digest.
  int to_child[kReplicas][2];
  int from_child[kReplicas][2];
  pid_t pids[kReplicas];
  for (int i = 0; i < kReplicas; ++i) {
    if (::pipe(to_child[i]) != 0 || ::pipe(from_child[i]) != 0) {
      std::perror("pipe");
      return kExitPipe;
    }
  }

  // Fork all replicas BEFORE any SocketTransport (and thus any thread)
  // exists in the parent.
  for (int i = 0; i < kReplicas; ++i) {
    pids[i] = ::fork();
    if (pids[i] < 0) {
      std::perror("fork");
      return kExitPipe;
    }
    if (pids[i] == 0) {
      for (int j = 0; j < kReplicas; ++j) {
        ::close(to_child[j][1]);
        ::close(from_child[j][0]);
        if (j != i) {
          ::close(to_child[j][0]);
          ::close(from_child[j][1]);
        }
      }
      run_replica(static_cast<net::ProcessId>(2 + i), to_child[i][0],
                  from_child[i][1], from_child[i][1]);
    }
  }
  for (int i = 0; i < kReplicas; ++i) {
    ::close(to_child[i][0]);
    ::close(from_child[i][1]);
  }

  // Ordering + proxy process: LocalBroadcast behind the relay. (PaxosGroup
  // drops in here unchanged — see tests/integration/socket_cluster_test.cpp;
  // the example keeps the ordering trivial so the transport is the subject.)
  net::SocketTransportConfig scfg;
  scfg.peers[kRelayId] = net::SocketAddr{"127.0.0.1", 0};
  net::SocketTransport server_transport(scfg);
  consensus::LocalBroadcast inner;
  consensus::RelayServerConfig rcfg;
  rcfg.process = kRelayId;
  consensus::BroadcastRelayServer relay(server_transport, inner, rcfg);
  relay.start();
  const std::uint16_t relay_port = server_transport.listen_port(kRelayId);

  for (int i = 0; i < kReplicas; ++i) {
    if (!write_exact(to_child[i][1], &relay_port, sizeof(relay_port))) {
      std::fprintf(stderr, "replica %d: pipe write failed\n", 2 + i);
      return kExitPipe;
    }
  }
  for (int i = 0; i < kReplicas; ++i) {
    std::uint16_t port = 0;
    if (!read_exact(from_child[i][0], &port, sizeof(port))) {
      std::fprintf(stderr, "replica %d: no port report\n", 2 + i);
      return kExitPipe;
    }
    server_transport.set_peer(static_cast<net::ProcessId>(2 + i),
                              net::SocketAddr{"127.0.0.1", port});
  }
  inner.start();

  // The proxy role: broadcast the fixed workload into the ordering.
  smr::BitmapConfig bitmap;
  bitmap.bits = 102400;
  smr::ConsensusAdapter proxy(inner, bitmap);
  for (std::uint64_t i = 0; i < kBatches; ++i) {
    proxy.broadcast(std::make_unique<smr::Batch>(smr::Batch(batch_commands(i))));
  }
  std::printf("broadcast %llu batches (%llu commands) to %d replica processes\n",
              static_cast<unsigned long long>(kBatches),
              static_cast<unsigned long long>(kTotalCommands), kReplicas);

  // The first failure names the outcome; a replica's own exit status (a
  // timeout, say) explains its missing digest, so it outranks a mismatch.
  int result = 0;
  const std::optional<std::uint64_t> expected = reference_digest();
  if (expected) {
    std::printf("simulated-net reference fingerprint: %016llx\n",
                static_cast<unsigned long long>(*expected));
  } else {
    result = kExitReferenceTimeout;
  }

  bool mismatch = false;
  bool missing = false;
  for (int i = 0; i < kReplicas; ++i) {
    std::uint64_t digest = 0;
    if (!read_exact(from_child[i][0], &digest, sizeof(digest))) {
      std::fprintf(stderr, "replica %d: no digest report\n", 2 + i);
      missing = true;
      continue;
    }
    if (!expected) continue;
    const bool match = digest == *expected;
    std::printf("replica process %d fingerprint:       %016llx  %s\n", 2 + i,
                static_cast<unsigned long long>(digest),
                match ? "MATCH" : "MISMATCH");
    mismatch = mismatch || !match;
  }
  for (int i = 0; i < kReplicas; ++i) {
    int status = 0;
    const bool exited = ::waitpid(pids[i], &status, 0) == pids[i] && WIFEXITED(status);
    if (!exited || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "replica %d: abnormal exit (status %d)\n", 2 + i, status);
      if (result == 0) result = exited ? WEXITSTATUS(status) : kExitPipe;
    }
  }
  relay.stop();
  inner.stop();
  server_transport.shutdown();
  if (result == 0 && missing) result = kExitPipe;
  if (result == 0 && mismatch) {
    std::fprintf(stderr, "FINGERPRINT MISMATCH\n");
    result = kExitMismatch;
  }
  if (result == 0) {
    std::printf("all replica processes converged on the reference fingerprint\n");
  }
  return result;
}
