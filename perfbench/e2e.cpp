// End-to-end PSMR benchmark.
//
// Runs the whole replicated path of one named workload in one process:
//
//   closed-loop Proxy threads (BatchFormer -> AdmissionController)
//     -> ConsensusAdapter (encode)
//     -> LocalBroadcast, or PaxosGroup behind BroadcastRelayServer /
//        RemoteBroadcastClient over loopback SocketTransport
//     -> decode + Bloom rebuild -> Replica::deliver -> monitor Scheduler
//     -> KvService -> response sink -> Proxy::on_response
//
// A run is one untimed check pass followed by one timed rep per 2 s of
// --seconds. Each rep builds a fresh stack, warms up, measures its share of
// --seconds, drains and tears down. Every end-to-end metric is the median
// over the rep values; set-up additionally gets kSetupOnlyReps
// build-start-answer-teardown samples.
//
// The check pass subscribes a SequentialReplica oracle, over its own
// KvStore, to the same ordered stream; its digest must equal the parallel
// replica's. Timed reps must answer every drawn command OK/NotFound with no
// admission rejection (the budget is sized so the closed loop never sheds).
//
// --trace 1 alternates untraced and traced reps. Traced reps record per-batch
// stage stamps (probe.hpp) and report the per-layer metrics; the throughput
// ratio between the two kinds is trace.overhead_frac.
//
// Usage:
//   psmr_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--commit <id>] [--out-dir <dir>]
// The last stdout line is the JSON result; exit code 1 on a failed check.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "consensus/group.hpp"
#include "consensus/socket_broadcast.hpp"
#include "kvstore/kvstore.hpp"
#include "net/socket_transport.hpp"
#include "obs/metrics.hpp"
#include "probe.hpp"
#include "smr/admission.hpp"
#include "smr/consensus_adapter.hpp"
#include "smr/proxy.hpp"
#include "smr/replica.hpp"
#include "smr/sequential_replica.hpp"
#include "stats/histogram.hpp"
#include "util/spin.hpp"
#include "workloads.hpp"

#ifndef PSMR_BENCH_BUILD_TYPE
#define PSMR_BENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace smr = psmr::smr;
namespace kv = psmr::kv;
namespace net = psmr::net;
namespace consensus = psmr::consensus;
namespace obs = psmr::obs;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir = ".bench_build/perfbench-out";
};

/// kCheck: untimed oracle pass. kSetup: build, start, first answer, tear
/// down — extra set-up samples. kUntraced / kTraced: timed reps.
enum class RepKind { kCheck, kSetup, kUntraced, kTraced };

/// Extra set-up-only reps per untraced run: set-up is a few milliseconds,
/// so its median needs more samples than the timed reps give.
constexpr unsigned kSetupOnlyReps = 12;

/// Warm-up before each timed window, and the check pass's window.
constexpr double kWarmupS = 0.4;
constexpr double kCheckS = 0.5;

/// Share of host CPU time stolen by the hypervisor above which a timed rep
/// counts as disturbed (see run()).
constexpr double kMaxStealFrac = 0.01;

/// Aggregate host CPU ticks from /proc/stat: total and stolen.
struct HostTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": user nice system idle iowait irq softirq steal ...
  HostTicks t;
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Everything one rep measured. Per-layer values are filled in traced reps.
struct RepStats {
  RepKind kind = RepKind::kUntraced;
  double setup_s = 0.0;
  double window_s = 0.0;
  double throughput_kcmds = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  std::size_t latency_samples = 0;
  std::uint64_t samples_dropped = 0;
  double cpu_ns_per_cmd = 0.0;
  double peak_rss_mb = 0.0;  // timed reps: peak resident set during the rep
  double steal_frac = 0.0;  // host CPU stolen by the hypervisor in the window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t admission_rejected = 0;
  std::map<std::string, double> layer;
  std::vector<std::pair<std::string, double>> self_us;  // per-layer self time
  double stage_sum_us = 0.0;
  double round_mean_us = 0.0;
  std::size_t traced_batches = 0;
  std::uint64_t hash_mismatches = 0;
  bool digests_equal = true;
  std::uint64_t replica_digest = 0;
  std::uint64_t oracle_digest = 0;
  std::uint64_t oracle_batches = 0;
};

double process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv_ns = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e9 + static_cast<double>(tv.tv_usec) * 1e3;
  };
  return tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
}

/// Resets the process's peak resident set (VmHWM) to its current size.
/// False if the kernel refuses, in which case VmHWM stays the process peak.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return out.good();
}

/// Peak resident set since the last reset_peak_rss(), from VmHWM.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// Polls `pred` every 100 us until it holds or `timeout_s` passes.
template <typename Pred>
bool wait_for(Pred pred, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_s));
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

void sleep_s(double s) { std::this_thread::sleep_for(std::chrono::duration<double>(s)); }

/// Nearest-rank quantile of an unsorted sample (reorders `v`).
template <typename T>
double quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Stage accounting over the traced rep's batch records. The chain
/// encode -> order -> decode -> deliver -> sched wait -> exec -> respond ->
/// wake partitions each batch's round (BroadcastFn entry to the proxy's next
/// draw), using running-max stamps so overlapping stages (a worker starting
/// before deliver() returns) are counted once. Each segment is therefore the
/// self time of one layer.
void account_stages(const WorkloadSpec& w, const Probe& probe, std::uint64_t t_base,
                    const std::string& spans_path, std::uint64_t seed, RepStats& out) {
  struct Sums {
    double build = 0, encode = 0, submit = 0, decode = 0, deliver = 0, swait = 0, exec = 0;
    double c_encode = 0, c_order = 0, c_decode = 0, c_deliver = 0, c_swait = 0, c_core = 0,
           c_kv = 0, c_respond = 0, c_wake = 0, c_probe = 0;
  } s;
  std::vector<std::uint64_t> order_lat;
  std::FILE* f = std::fopen(spans_path.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "# workload=%s seed=%llu; one line per batch, stamps in ns since rep start.\n"
                 "# span id above consensus: (proxy, first_client, seq); across it: hash.\n"
                 "proxy\tfirst_client\tseq\thash\tfirst_draw\tbcast_entry\tsubmit_entry\t"
                 "submit_return\tordered\tdeliver_entry\tdeliver_return\tfirst_exec\t"
                 "last_exec\tlast_response\tnext_draw\tkv_ns\tprobe_submit_ns\t"
                 "probe_in_submit_ns\tprobe_ordered_ns\n",
                 w.name.c_str(), static_cast<unsigned long long>(seed));
  }
  std::size_t n = 0;
  for (std::uint64_t p = 0; p < w.proxies; ++p) {
    for (std::uint64_t seq = 1; seq + 1 < Probe::kRecordCap; ++seq) {
      const BatchStamps* r = probe.record(p, seq);
      const BatchStamps* next = probe.record(p, seq + 1);
      const std::array<std::uint64_t, 11> st = {
          r->first_draw.load(),   r->bcast_entry.load(),   r->submit_entry.load(),
          r->submit_return.load(), r->ordered.load(),       r->deliver_entry.load(),
          r->deliver_return.load(), r->first_exec.load(),   r->last_exec.load(),
          r->last_response.load(), next->first_draw.load()};
      if (st[0] == 0) break;  // past this proxy's last round
      if (std::any_of(st.begin(), st.end(), [](std::uint64_t t) { return t == 0; })) continue;
      const auto [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, tw] = st;
      const auto d = [](std::uint64_t a, std::uint64_t b) {
        return b > a ? static_cast<double>(b - a) : 0.0;
      };
      // The probe's payload hashing, taken out of the stage it fell in.
      const double ps = static_cast<double>(r->probe_submit_ns.load());
      const double pi = static_cast<double>(r->probe_in_submit_ns.load());
      const double po = static_cast<double>(r->probe_ordered_ns.load());
      const auto less = [](double seg, double probe) { return seg - std::min(seg, probe); };
      s.build += d(t0, t1);
      s.encode += less(d(t1, t2), ps);
      s.submit += less(d(t2, t3), pi);
      s.decode += d(t4, t5);
      s.deliver += d(t5, t6);
      s.swait += d(t6, t7);
      s.exec += d(t7, t8);
      order_lat.push_back(static_cast<std::uint64_t>(less(d(t2, t4), po)));
      // Monotone chain points.
      const std::uint64_t c2 = std::max(t1, t2), c4 = std::max(c2, t4), c5 = std::max(c4, t5),
                          c6 = std::max(c5, t6), c7 = std::max(c6, t7), c8 = std::max(c7, t8),
                          c9 = std::max(c8, t9), cw = std::max(c9, tw);
      const double exec_seg = d(c7, c8);
      const double kv_seg = std::min(exec_seg, static_cast<double>(r->kv_ns.load()));
      s.c_encode += less(d(t1, c2), ps);
      s.c_order += less(d(c2, c4), po);
      s.c_probe += (d(t1, c2) - less(d(t1, c2), ps)) + (d(c2, c4) - less(d(c2, c4), po));
      s.c_decode += d(c4, c5);
      s.c_deliver += d(c5, c6);
      s.c_swait += d(c6, c7);
      s.c_kv += kv_seg;
      s.c_core += exec_seg - kv_seg;
      s.c_respond += d(c8, c9);
      s.c_wake += d(c9, cw);
      ++n;
      if (f != nullptr) {
        std::fprintf(f, "%llu\t%llu\t%llu\t%016llx", static_cast<unsigned long long>(p),
                     static_cast<unsigned long long>(p * w.clients_per_proxy),
                     static_cast<unsigned long long>(seq),
                     static_cast<unsigned long long>(r->hash.load()));
        for (std::uint64_t t : st) {
          std::fprintf(f, "\t%llu", static_cast<unsigned long long>(t - t_base));
        }
        std::fprintf(f, "\t%llu\t%llu\t%llu\t%llu\n",
                     static_cast<unsigned long long>(r->kv_ns.load()),
                     static_cast<unsigned long long>(r->probe_submit_ns.load()),
                     static_cast<unsigned long long>(r->probe_in_submit_ns.load()),
                     static_cast<unsigned long long>(r->probe_ordered_ns.load()));
      }
    }
  }
  if (f != nullptr) std::fclose(f);
  out.traced_batches = n;
  if (n == 0) return;
  const double k = 1e3 * static_cast<double>(n);  // ns sums -> mean us
  out.layer["proxy.build_us"] = s.build / k;
  out.layer["codec.encode_us"] = s.encode / k;
  out.layer["order.submit_us"] = s.submit / k;
  out.layer["codec.decode_us"] = s.decode / k;
  out.layer["replica.deliver_us"] = s.deliver / k;
  out.layer["sched.wait_us"] = s.swait / k;
  out.layer["batch.exec_us"] = s.exec / k;
  out.layer["order.latency_p50_us"] = quantile(order_lat, 0.50) / 1e3;
  out.layer["order.latency_p99_us"] = quantile(order_lat, 0.99) / 1e3;
  out.self_us = {
      {"smr.proxy (respond + wake)", (s.c_respond + s.c_wake) / k},
      {"smr.codec (encode + decode)", (s.c_encode + s.c_decode) / k},
      {"consensus (broadcast -> ordered)", s.c_order / k},
      {"smr.replica (deliver)", s.c_deliver / k},
      {"core (sched wait + exec - kv)", (s.c_swait + s.c_core) / k},
      {"kvstore (execute)", s.c_kv / k},
      {"obs (probe payload hashing)", s.c_probe / k},
  };
  const char* const self_keys[] = {"self.proxy_us",   "self.codec_us", "self.consensus_us",
                                   "self.replica_us", "self.core_us",  "self.kvstore_us",
                                   "self.probe_us"};
  for (std::size_t i = 0; i < out.self_us.size(); ++i) {
    out.stage_sum_us += out.self_us[i].second;
    out.layer[self_keys[i]] = out.self_us[i].second;
  }
}

RepStats run_rep(const WorkloadSpec& w, const Options& o, RepKind kind, double window_s,
                 SampleBuffers& buffers) {
  const bool traced = kind == RepKind::kTraced;
  const bool check = kind == RepKind::kCheck;
  const bool timed = kind == RepKind::kUntraced || kind == RepKind::kTraced;
  RepStats out;
  out.kind = kind;
  if (timed && !reset_peak_rss()) {
    std::fprintf(stderr, "cannot reset VmHWM; peak_rss_mb is the process peak\n");
  }

  // Workload preparation, outside set-up time: the probe's records and the
  // preloaded key set (plus the oracle's copy in the check pass).
  Probe probe(w, traced, buffers);
  kv::KvStore store;
  preload(w, o.seed, store);
  kv::KvStore oracle_store;
  if (check) preload(w, o.seed, oracle_store);
  const std::uint64_t t_setup0 = now_ns();

  kv::KvService kv_service(store);
  TimedService timed_service(kv_service, probe);
  smr::Service& service = traced ? static_cast<smr::Service&>(timed_service) : kv_service;

  // Check pass only: the sequential oracle over its own store.
  kv::KvService oracle_service(oracle_store);
  smr::SequentialReplica oracle(oracle_service, nullptr);
  std::atomic<std::uint64_t> oracle_batches{0};
  std::atomic<std::uint64_t> replica_batches{0};

  // Ordering substrate.
  consensus::LocalBroadcast local;
  std::unique_ptr<consensus::PaxosGroup> group;
  auto transport_metrics = std::make_shared<obs::MetricsRegistry>();
  std::unique_ptr<net::SocketTransport> server_transport;
  std::unique_ptr<net::SocketTransport> client_transport;
  std::unique_ptr<consensus::BroadcastRelayServer> relay;
  std::unique_ptr<consensus::RemoteBroadcastClient> remote;
  consensus::AtomicBroadcast* order = &local;
  if (w.ordering == Ordering::kPaxosRelay) {
    consensus::GroupConfig gc;
    gc.acceptors = 3;
    gc.proposers = 2;
    gc.seed = o.seed;
    group = std::make_unique<consensus::PaxosGroup>(gc);
    net::SocketTransportConfig scfg;
    scfg.peers[1] = {};
    scfg.metrics = transport_metrics;
    server_transport = std::make_unique<net::SocketTransport>(scfg);
    consensus::RelayServerConfig rcfg;
    rcfg.process = 1;
    relay = std::make_unique<consensus::BroadcastRelayServer>(*server_transport, *group, rcfg);
    relay->start();
    net::SocketTransportConfig ccfg;
    ccfg.peers[2] = {};
    ccfg.peers[1] = net::SocketAddr{"127.0.0.1", server_transport->listen_port(1)};
    ccfg.metrics = transport_metrics;
    client_transport = std::make_unique<net::SocketTransport>(ccfg);
    consensus::RemoteClientConfig cc;
    cc.process = 2;
    cc.server = 1;
    remote = std::make_unique<consensus::RemoteBroadcastClient>(*client_transport, cc);
    server_transport->set_peer(
        2, net::SocketAddr{"127.0.0.1", client_transport->listen_port(2)});
    order = remote.get();
  }
  std::unique_ptr<TracedBroadcast> traced_order;
  if (traced) {
    traced_order = std::make_unique<TracedBroadcast>(*order, probe);
    order = traced_order.get();
  }
  smr::BitmapConfig bitmap;  // m = 1,024,000, k = 1 (the paper's setting)
  smr::ConsensusAdapter adapter(*order, bitmap);

  std::vector<std::unique_ptr<smr::Proxy>> proxies;
  smr::Replica::ResponseSink sink;
  if (traced) {
    sink = [&](const smr::Response& r) {
      probe.on_response(r);
      const std::uint64_t t0 = now_ns();
      proxies[r.client_id / w.clients_per_proxy]->on_response(r);
      probe.add_response_time(now_ns() - t0);
    };
  } else {
    sink = [&](const smr::Response& r) {
      probe.on_response(r);
      proxies[r.client_id / w.clients_per_proxy]->on_response(r);
    };
  }

  smr::Replica::Config rc;
  rc.scheduler.workers = w.workers;
  rc.scheduler.mode = w.mode;
  rc.checkpoint_interval = w.checkpoint_interval;
  rc.checkpoint_state = [&store] { return store.serialize(); };
  smr::Replica replica(rc, service, sink);
  if (traced) {
    adapter.subscribe_replica([&](smr::BatchPtr b) {
      probe.on_deliver_entry(*b);
      const std::uint64_t proxy = b->proxy_id();
      const std::uint64_t seq = b->empty() ? 0 : b->commands().front().sequence;
      replica.deliver(std::move(b));
      probe.on_deliver_return(proxy, seq);
      replica_batches.fetch_add(1, std::memory_order_relaxed);
    });
  } else {
    adapter.subscribe_replica([&](smr::BatchPtr b) {
      replica.deliver(std::move(b));
      replica_batches.fetch_add(1, std::memory_order_relaxed);
    });
  }
  if (check) {
    adapter.subscribe_replica([&](smr::BatchPtr b) {
      oracle.apply(*b);
      oracle_batches.fetch_add(1, std::memory_order_relaxed);
    });
  }
  replica.start();
  if (group != nullptr) {
    group->start();
    remote->start();
  }

  // Sized so the closed loop never sheds: each proxy holds one round.
  smr::AdmissionController::Config acfg;
  acfg.global_credits = static_cast<std::uint64_t>(w.proxies) * w.batch_size;
  acfg.per_client_inflight = w.batch_size;
  auto admission = std::make_shared<smr::AdmissionController>(acfg);

  std::vector<std::unique_ptr<CommandGen>> gens;
  for (unsigned p = 0; p < w.proxies; ++p) {
    gens.push_back(std::make_unique<CommandGen>(w, o.seed, p));
    CommandGen* gen = gens.back().get();
    smr::Proxy::Config pc;
    pc.proxy_id = p;
    pc.num_clients = w.clients_per_proxy;
    pc.formation.batch_size = w.batch_size;
    pc.formation.use_bitmap = w.use_bitmap;
    pc.formation.bitmap = bitmap;
    pc.admission.controller = admission;
    smr::Proxy::CommandSource source;
    smr::Proxy::BroadcastFn broadcast;
    if (traced) {
      source = [gen, &probe](std::uint64_t client, std::uint64_t seq) {
        const std::uint64_t t0 = now_ns();
        smr::Command c = gen->next();
        probe.on_draw(client, seq, now_ns() - t0);
        return c;
      };
      broadcast = [&adapter, &probe](std::unique_ptr<smr::Batch> b) {
        probe.on_broadcast_entry(*b);
        adapter.broadcast(std::move(b));
      };
    } else {
      source = [gen, &probe](std::uint64_t client, std::uint64_t seq) {
        smr::Command c = gen->next();
        probe.on_draw(client, seq, 0);
        return c;
      };
      broadcast = [&adapter](std::unique_ptr<smr::Batch> b) { adapter.broadcast(std::move(b)); };
    }
    proxies.push_back(std::make_unique<smr::Proxy>(pc, std::move(source), std::move(broadcast)));
  }
  for (auto& p : proxies) p->start();

  const bool started = wait_for([&] { return probe.first_response_ns() != 0; }, 30.0);
  out.setup_s = started ? static_cast<double>(probe.first_response_ns() - t_setup0) / 1e9 : 0.0;

  if (timed) sleep_s(kWarmupS);

  // ---- timed window ----
  const obs::Snapshot rs0 = replica.stats();
  const std::uint64_t ok0 = probe.answered_ok();
  const std::uint64_t kv0 = probe.kv_ns();
  const double cpu0 = process_cpu_ns();
  const HostTicks host0 = host_ticks();
  const auto w0 = std::chrono::steady_clock::now();
  probe.set_recording(true);
  sleep_s(check ? kCheckS : window_s);
  probe.set_recording(false);
  const auto w1 = std::chrono::steady_clock::now();
  const double cpu1 = process_cpu_ns();
  const HostTicks host1 = host_ticks();
  out.steal_frac = host1.total > host0.total
                       ? static_cast<double>(host1.steal - host0.steal) /
                             static_cast<double>(host1.total - host0.total)
                       : 0.0;
  const std::uint64_t ok1 = probe.answered_ok();
  const std::uint64_t kv1 = probe.kv_ns();
  const obs::Snapshot rs1 = replica.stats();
  out.window_s = std::chrono::duration<double>(w1 - w0).count();

  // ---- drain and tear down ----
  for (auto& p : proxies) p->stop();
  wait_for([&] { return probe.answered_ok() + probe.answered_bad() >= probe.drawn(); }, 10.0);
  if (check) {
    wait_for([&] { return oracle_batches.load() >= replica_batches.load(); }, 10.0);
  }
  replica.wait_idle();
  if (group != nullptr) {
    remote->stop();
    relay->stop();
    group->stop();
    client_transport->shutdown();
    server_transport->shutdown();
  }
  replica.stop();
  out.peak_rss_mb = peak_rss_mb();

  const std::uint64_t answered = ok1 - ok0;
  out.throughput_kcmds = static_cast<double>(answered) / out.window_s / 1e3;
  out.cpu_ns_per_cmd = answered == 0 ? 0.0 : (cpu1 - cpu0) / static_cast<double>(answered);
  {
    std::vector<std::uint32_t> lat = probe.samples();
    out.latency_samples = lat.size();
    out.latency_p50_us = quantile(lat, 0.50) / 1e3;
    out.latency_p99_us = quantile(lat, 0.99) / 1e3;
    out.samples_dropped = probe.samples_dropped();
  }
  out.attempted = probe.drawn();
  out.failed = out.attempted - std::min(out.attempted, probe.answered_ok());
  out.admission_rejected = admission->stats().counter("admission.rejected");

  if (check) {
    out.replica_digest = store.digest();
    out.oracle_digest = oracle_store.digest();
    out.oracle_batches = oracle_batches.load();
    out.digests_equal = out.replica_digest == out.oracle_digest &&
                        oracle_batches.load() == replica_batches.load();
  }

  if (traced) {
    const obs::Snapshot rs = replica.stats();
    psmr::stats::Histogram rounds;
    double adm_wait_sum = 0.0, adm_wait_n = 0.0, retransmits = 0.0, batches_done = 0.0;
    for (auto& p : proxies) {
      rounds.merge(p->latency());
      const obs::HistogramSummary a = p->stats().histogram(
          "proxy." + std::to_string(p->id()) + ".admission_wait_ns");
      adm_wait_sum += a.mean * static_cast<double>(a.count);
      adm_wait_n += static_cast<double>(a.count);
      retransmits += static_cast<double>(p->retransmits());
      batches_done += static_cast<double>(p->batches_completed());
    }
    const double ordered = static_cast<double>(std::max<std::uint64_t>(1, probe.ordered_batches()));
    const double delivered =
        static_cast<double>(std::max<std::uint64_t>(1, rs.counter("scheduler.batches_delivered")));
    auto& L = out.layer;
    L["workload.gen_ns"] = static_cast<double>(probe.gen_ns()) /
                           static_cast<double>(std::max<std::uint64_t>(1, probe.gen_calls()));
    L["proxy.round_us"] = static_cast<double>(rounds.p50()) / 1e3;
    L["proxy.admission_wait_us"] = adm_wait_n == 0.0 ? 0.0 : adm_wait_sum / adm_wait_n / 1e3;
    L["proxy.response_ns"] =
        static_cast<double>(probe.response_ns()) /
        static_cast<double>(std::max<std::uint64_t>(1, probe.response_calls()));
    L["proxy.retransmits_per_1k"] = batches_done == 0.0 ? 0.0 : 1e3 * retransmits / batches_done;
    L["consensus.msgs_per_batch"] =
        group != nullptr ? static_cast<double>(group->network().messages_delivered()) / ordered
                         : 0.0;
    const obs::Snapshot ts = transport_metrics->snapshot();
    L["transport.frames_per_batch"] =
        static_cast<double>(ts.counter("transport.frames_sent")) / ordered;
    L["transport.bytes_per_batch"] =
        static_cast<double>(ts.counter("transport.bytes_sent")) / ordered;
    L["sched.queue_wait_us"] = rs.histogram("scheduler.queue_wait_ns").mean / 1e3;
    L["sched.pair_tests_per_batch"] =
        static_cast<double>(rs.counter("scheduler.insert.pair_tests")) / delivered;
    L["sched.conflicts_per_batch"] =
        static_cast<double>(rs.counter("scheduler.insert.conflicts_found")) / delivered;
    L["graph.size_at_insert.avg"] = rs.gauge("graph.size_at_insert.avg");
    L["sched.worker_busy_frac"] =
        static_cast<double>(kv1 - kv0) / (static_cast<double>(w.workers) * out.window_s * 1e9);
    L["kv.exec_ns"] = static_cast<double>(probe.kv_ns()) /
                      static_cast<double>(std::max<std::uint64_t>(1, probe.kv_calls()));
    const obs::HistogramSummary barrier = rs.histogram("checkpoint.barrier_wait_ns");
    const obs::HistogramSummary capture = rs.histogram("checkpoint.capture_ns");
    L["checkpoint.pause_us"] = (barrier.mean + capture.mean) / 1e3;
    L["checkpoint.per_s"] =
        static_cast<double>(rs1.counter("checkpoint.taken") - rs0.counter("checkpoint.taken")) /
        out.window_s;
    const std::uint64_t taken = rs.counter("checkpoint.taken");
    L["checkpoint.bytes"] =
        taken == 0 ? 0.0
                   : static_cast<double>(rs.counter("checkpoint.bytes_total")) /
                         static_cast<double>(taken);
    out.round_mean_us = rounds.mean() / 1e3;
    out.hash_mismatches = probe.hash_mismatches();
    // Each traced rep overwrites the dump: it holds the run's last one.
    account_stages(w, probe, t_setup0, o.out_dir + "/spans-" + w.name + ".tsv", o.seed, out);
    L["trace.accounting_gap_frac"] =
        out.round_mean_us == 0.0 ? 1.0
                                 : std::fabs(out.stage_sum_us - out.round_mean_us) /
                                       out.round_mean_us;
  }
  return out;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics (--trace 0). error_frac is reported in the text
// output and as the result's attempted/failed counts.
constexpr MetricDef kEndToEnd[] = {
    {"throughput_kcmds", "kcmds/s"}, {"latency_p50_us", "us"}, {"latency_p99_us", "us"},
    {"cpu_ns_per_cmd", "ns"},        {"peak_rss_mb", "MB"},    {"setup_s", "s"},
};

// Per-layer metrics (--trace 1), grouped by module.
constexpr MetricDef kPerLayer[] = {
    {"workload.gen_ns", "ns"},
    {"proxy.build_us", "us"},
    {"proxy.round_us", "us"},
    {"proxy.admission_wait_us", "us"},
    {"proxy.response_ns", "ns"},
    {"proxy.retransmits_per_1k", "count"},
    {"codec.encode_us", "us"},
    {"codec.decode_us", "us"},
    {"order.submit_us", "us"},
    {"order.latency_p50_us", "us"},
    {"order.latency_p99_us", "us"},
    {"consensus.msgs_per_batch", "count"},
    {"transport.frames_per_batch", "count"},
    {"transport.bytes_per_batch", "B"},
    {"replica.deliver_us", "us"},
    {"sched.wait_us", "us"},
    {"batch.exec_us", "us"},
    {"sched.queue_wait_us", "us"},
    {"sched.pair_tests_per_batch", "count"},
    {"sched.conflicts_per_batch", "count"},
    {"graph.size_at_insert.avg", "count"},
    {"sched.worker_busy_frac", "fraction"},
    {"kv.exec_ns", "ns"},
    {"checkpoint.pause_us", "us"},
    {"checkpoint.per_s", "1/s"},
    {"checkpoint.bytes", "B"},
    {"self.proxy_us", "us"},
    {"self.codec_us", "us"},
    {"self.consensus_us", "us"},
    {"self.replica_us", "us"},
    {"self.core_us", "us"},
    {"self.kvstore_us", "us"},
    {"self.probe_us", "us"},
    {"trace.accounting_gap_frac", "fraction"},
    {"trace.overhead_frac", "fraction"},
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

struct Summary {
  double median = 0, min = 0, max = 0;
  std::size_t n = 0;
};

Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  s.median = median(v);
  s.min = *std::min_element(v.begin(), v.end());
  s.max = *std::max_element(v.begin(), v.end());
  return s;
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--commit") {
      o.commit = v;
    } else if (k == "--out-dir") {
      o.out_dir = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "flag without a value\n");
    return false;
  }
  return o.seconds > 0.0;
}

int run(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, o)) return 2;
  const WorkloadSpec* wp = find_workload(o.workload);
  if (wp == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:", o.workload.c_str());
    for (const WorkloadSpec& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  const WorkloadSpec& w = *wp;
  std::filesystem::create_directories(o.out_dir);

  // Process-wide one-time costs, paid before any set-up is timed: the busy
  // loop's calibration and the latency sample buffers.
  psmr::util::busy_work(1000);
  const unsigned n_reps = static_cast<unsigned>(std::max(2L, std::lround(o.seconds / 2.0)));
  const double window_s = o.seconds / n_reps;
  // Room for 4M answered commands/s in a window, twice the fastest rate
  // measured on a 4-CPU host.
  SampleBuffers buffers(w.proxies,
                        static_cast<std::size_t>(window_s * 4e6 / Probe::kSampleEvery /
                                                 w.proxies) + 4096);

  const std::string host_cpu = cpu_model();
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("== psmr e2e benchmark: workload %s ==\n", w.name.c_str());
  std::printf("seed %llu | seconds %.3g | reps %u | trace %d | nproc %u | cpu %s\n",
              static_cast<unsigned long long>(o.seed), o.seconds, n_reps, o.trace ? 1 : 0,
              nproc, host_cpu.c_str());
  std::printf("build %s | commit %s\n", PSMR_BENCH_BUILD_TYPE, o.commit.c_str());
  std::printf("why: %s\nbypasses: %s\n", w.why.c_str(), w.bypasses.c_str());
  std::printf("load: %u closed-loop proxies x %zu clients, batch %zu, %u workers, 1 replica, "
              "no injected delay\n\n",
              w.proxies, w.clients_per_proxy, w.batch_size, w.workers);
  std::fflush(stdout);

  bool correct = true;
  std::vector<std::string> failures;

  // Each rep tears its stack down; returning the freed heap to the kernel
  // keeps one rep's allocations from inflating the next rep's footprint.
  const auto rep = [&](RepKind kind, double seconds) {
    RepStats r = run_rep(w, o, kind, seconds, buffers);
    malloc_trim(0);
    return r;
  };
  const RepStats chk = rep(RepKind::kCheck, kCheckS);
  std::printf("check pass: %llu batches, replica digest %016llx, oracle digest %016llx -> %s\n",
              static_cast<unsigned long long>(chk.oracle_batches),
              static_cast<unsigned long long>(chk.replica_digest),
              static_cast<unsigned long long>(chk.oracle_digest),
              chk.digests_equal ? "equal" : "DIFFERENT");
  if (!chk.digests_equal || chk.oracle_batches == 0) {
    correct = false;
    failures.push_back("oracle digest differs from the parallel replica's");
  }
  if (chk.failed != 0) {
    correct = false;
    failures.push_back("check pass left commands unanswered or failed");
  }

  // A rep during which the hypervisor stole more than kMaxStealFrac of the
  // host's CPU time measured the neighbours, not the program. Reps run until
  // each kind has its quota of undisturbed ones, or until n_reps / 2 extra
  // reps have run (which bounds run time); then the least disturbed reps of
  // each kind are kept. Checks of every rep count. Every rep's steal share
  // goes into the output, so a comparison can reject a run that still kept
  // disturbed reps rather than read it as a change.
  const unsigned traced_quota = o.trace ? n_reps / 2 : 0;
  const unsigned quota[2] = {n_reps - traced_quota, traced_quota};  // untraced, traced
  unsigned undisturbed[2] = {0, 0};
  std::vector<RepStats> attempts;
  while ((undisturbed[0] < quota[0] || undisturbed[1] < quota[1]) &&
         attempts.size() < n_reps + n_reps / 2) {
    const bool traced_rep = o.trace && attempts.size() % 2 == 1;
    RepStats r = rep(traced_rep ? RepKind::kTraced : RepKind::kUntraced, window_s);
    if (r.steal_frac <= kMaxStealFrac) ++undisturbed[traced_rep ? 1 : 0];
    std::printf("rep %zu %-8s setup %.4f s | %.2f kcmds/s | p50 %.1f us p99 %.1f us (n=%zu) | "
                "cpu %.0f ns/cmd | attempted %llu failed %llu | steal %.1f%%\n",
                attempts.size(), traced_rep ? "traced" : "untraced", r.setup_s,
                r.throughput_kcmds, r.latency_p50_us, r.latency_p99_us, r.latency_samples,
                r.cpu_ns_per_cmd, static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), 100.0 * r.steal_frac);
    std::fflush(stdout);
    attempts.push_back(std::move(r));
  }
  std::stable_sort(attempts.begin(), attempts.end(), [](const RepStats& a, const RepStats& b) {
    return a.steal_frac < b.steal_frac;
  });
  std::vector<RepStats> reps;
  std::vector<RepStats> discarded;
  unsigned kept[2] = {0, 0};
  unsigned disturbed_kept = 0;
  for (RepStats& r : attempts) {
    const int k = r.kind == RepKind::kTraced ? 1 : 0;
    if (kept[k] < quota[k]) {
      ++kept[k];
      if (r.steal_frac > kMaxStealFrac) ++disturbed_kept;
      reps.push_back(std::move(r));
    } else {
      discarded.push_back(std::move(r));
    }
  }
  std::printf("kept %zu of %zu reps, the least disturbed; %u kept above %.0f%% steal\n",
              reps.size(), reps.size() + discarded.size(), disturbed_kept, 100.0 * kMaxStealFrac);

  std::vector<double> setups;
  for (const RepStats& r : reps) {
    if (r.kind == RepKind::kUntraced) setups.push_back(r.setup_s);
  }
  if (!o.trace) {
    for (unsigned i = 0; i < kSetupOnlyReps; ++i) {
      const RepStats r = rep(RepKind::kSetup, 0.0);
      if (r.setup_s == 0.0 || r.failed != 0) failures.push_back("a set-up-only rep failed");
      setups.push_back(r.setup_s);
    }
  }

  std::uint64_t attempted = 0, failed = 0;
  const auto check_rep = [&](const RepStats& r) {
    attempted += r.attempted;
    failed += r.failed;
    if (r.failed != 0) failures.push_back("a timed rep left commands unanswered or failed");
    if (r.admission_rejected != 0) failures.push_back("admission control shed load");
    if (r.samples_dropped != 0) failures.push_back("latency sample buffer overflowed");
    if (r.setup_s == 0.0) failures.push_back("no command was answered within 30 s of set-up");
    if (r.kind == RepKind::kTraced) {
      if (r.hash_mismatches != 0) failures.push_back("payload-hash span join failed");
      if (r.traced_batches == 0) failures.push_back("no complete batch trace");
    }
  };
  for (const RepStats& r : reps) check_rep(r);
  for (const RepStats& r : discarded) check_rep(r);

  // Aggregate: medians over reps of the relevant kind.
  std::map<std::string, std::vector<double>> e2e, layer;
  for (const RepStats& r : reps) {
    if (r.kind == RepKind::kUntraced) {
      e2e["throughput_kcmds"].push_back(r.throughput_kcmds);
      e2e["latency_p50_us"].push_back(r.latency_p50_us);
      e2e["latency_p99_us"].push_back(r.latency_p99_us);
      e2e["cpu_ns_per_cmd"].push_back(r.cpu_ns_per_cmd);
      e2e["latency_samples"].push_back(static_cast<double>(r.latency_samples));
    } else {
      for (const auto& [k, v] : r.layer) layer[k].push_back(v);
      layer["traced_throughput_kcmds"].push_back(r.throughput_kcmds);
    }
  }
  for (const RepStats& r : reps) {
    if (r.kind == RepKind::kUntraced) e2e["peak_rss_mb"].push_back(r.peak_rss_mb);
  }
  e2e["setup_s"] = setups;
  e2e["error_frac"].push_back(attempted == 0 ? 1.0
                                             : static_cast<double>(failed) /
                                                   static_cast<double>(attempted));
  if (o.trace) {
    const double u = median(e2e["throughput_kcmds"]);
    const double t = median(layer["traced_throughput_kcmds"]);
    layer["trace.overhead_frac"].push_back(u == 0.0 ? 0.0 : 1.0 - t / u);
    const double gap = median(layer["trace.accounting_gap_frac"]);
    if (gap > 0.10) failures.push_back("stage means miss proxy.round_us by more than 10%");
  }

  std::printf("\n%-28s %-9s %14s %14s %14s %4s\n", "end-to-end metric", "unit", "median",
              "min", "max", "n");
  const auto print_row = [](const std::string& name, const char* unit, const Summary& s) {
    std::printf("%-28s %-9s %14.4f %14.4f %14.4f %4zu\n", name.c_str(), unit, s.median, s.min,
                s.max, s.n);
  };
  for (const MetricDef& m : kEndToEnd) print_row(m.name, m.unit, summarize(e2e[m.name]));
  print_row("error_frac", "fraction", summarize(e2e["error_frac"]));
  print_row("latency_samples (per rep)", "count", summarize(e2e["latency_samples"]));
  if (o.trace) {
    std::printf("\n%-28s %-9s %14s %14s %14s %4s\n", "per-layer metric", "unit", "median", "min",
                "max", "n");
    for (const MetricDef& m : kPerLayer) print_row(m.name, m.unit, summarize(layer[m.name]));
    // Self time of the least disturbed traced rep, along one batch's round.
    for (auto it = reps.begin(); it != reps.end(); ++it) {
      if (it->kind != RepKind::kTraced) continue;
      std::printf("\nself time per batch round (least disturbed traced rep, %zu batches):\n",
                  it->traced_batches);
      for (const auto& [name, v] : it->self_us) {
        std::printf("  %-36s %10.2f us %6.1f%%\n", name.c_str(), v,
                    it->stage_sum_us == 0.0 ? 0.0 : 100.0 * v / it->stage_sum_us);
      }
      std::printf("  %-36s %10.2f us\n  %-36s %10.2f us (gap %.1f%%, limit 10%%)\n",
                  "sum of stage means", it->stage_sum_us, "mean proxy.round_us (registry)",
                  it->round_mean_us,
                  100.0 * it->layer.at("trace.accounting_gap_frac"));
      break;
    }
  }
  std::sort(failures.begin(), failures.end());
  failures.erase(std::unique(failures.begin(), failures.end()), failures.end());
  for (const std::string& f : failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  correct = correct && failures.empty();

  // Result file: header + per-metric median/min/max/n.
  std::string metrics_json;
  std::string detail_json;
  const auto add = [&](const MetricDef& m, const Summary& s) {
    char buf[512];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  metrics_json.empty() ? "" : ", ", m.name, s.median, m.unit);
    metrics_json += buf;
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"median\": %.12g, \"min\": %.12g, \"max\": %.12g, \"n\": %zu, "
                  "\"unit\": \"%s\"}",
                  detail_json.empty() ? "" : ", ", m.name, s.median, s.min, s.max, s.n, m.unit);
    detail_json += buf;
  };
  if (o.trace) {
    for (const MetricDef& m : kPerLayer) add(m, summarize(layer[m.name]));
  } else {
    for (const MetricDef& m : kEndToEnd) add(m, summarize(e2e[m.name]));
  }
  // Host interference: hypervisor steal share of every kept and discarded rep.
  std::string host_json;
  {
    const auto list = [](const std::vector<RepStats>& v) {
      std::string out;
      for (const RepStats& r : v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%s%.4f", out.empty() ? "" : ", ", r.steal_frac);
        out += buf;
      }
      return "[" + out + "]";
    };
    char buf[128];
    std::snprintf(buf, sizeof buf, "\"max_steal_frac\": %g, \"disturbed_reps_kept\": %u, ",
                  kMaxStealFrac, disturbed_kept);
    host_json = std::string("{") + buf + "\"steal_frac_kept\": " + list(reps) +
                ", \"steal_frac_discarded\": " + list(discarded) + "}";
  }
  std::printf("\nhost interference: %s\n", host_json.c_str());
  {
    const std::string path =
        o.out_dir + "/result-" + w.name + "-trace" + (o.trace ? "1" : "0") + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f,
                   "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"reps\": %u, "
                   "\"nproc\": %u, \"cpu\": \"%s\", \"build_type\": \"%s\", \"commit\": \"%s\", "
                   "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                   "\"error_frac\": %.12g, \"host\": %s, \"metrics\": {%s}}\n",
                   w.name.c_str(), static_cast<unsigned long long>(o.seed), o.seconds, n_reps,
                   nproc, json_escape(host_cpu).c_str(), PSMR_BENCH_BUILD_TYPE,
                   json_escape(o.commit).c_str(), correct ? "true" : "false",
                   static_cast<unsigned long long>(attempted),
                   static_cast<unsigned long long>(failed), median(e2e["error_frac"]),
                   host_json.c_str(), detail_json.c_str());
      std::fclose(f);
      std::printf("\nwrote %s\n", path.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
