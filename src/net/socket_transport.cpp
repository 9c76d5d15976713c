#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

namespace psmr::net {

namespace {

// epoll tag layout: kind in the top 32 bits, key (process id / inbound id)
// in the bottom 32. Inbound ids are assigned monotonically and recycled
// never; 2^32 accepted connections outlives any deployment this serves.
enum TagKind : std::uint64_t { kTagWake = 0, kTagListener = 1, kTagOutbound = 2, kTagInbound = 3 };

std::uint64_t make_tag(TagKind kind, std::uint64_t key) {
  return (static_cast<std::uint64_t>(kind) << 32) | (key & 0xffffffffULL);
}

bool resolve(const SocketAddr& addr, std::uint16_t port_override, sockaddr_in& out) {
  std::memset(&out, 0, sizeof(out));
  out.sin_family = AF_INET;
  out.sin_port = htons(port_override != 0 ? port_override : addr.port);
  // Numeric IPv4 only: the transport targets loopback CI and explicit
  // cluster maps, not name resolution.
  return ::inet_pton(AF_INET, addr.host.c_str(), &out.sin_addr) == 1;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

SocketTransport::SocketTransport(SocketTransportConfig config)
    : config_(std::move(config)),
      metrics_(config_.metrics ? config_.metrics
                               : std::make_shared<obs::MetricsRegistry>()),
      frames_sent_(&metrics_->counter("transport.frames_sent")),
      frames_received_(&metrics_->counter("transport.frames_received")),
      bytes_sent_(&metrics_->counter("transport.bytes_sent")),
      write_through_frames_(&metrics_->counter("transport.write_through_frames")),
      bytes_received_(&metrics_->counter("transport.bytes_received")),
      local_deliveries_(&metrics_->counter("transport.local_deliveries")),
      sends_dropped_(&metrics_->counter("transport.sends_dropped")),
      frames_misrouted_(&metrics_->counter("transport.frames_misrouted")),
      protocol_errors_(&metrics_->counter("transport.protocol_errors")),
      connects_(&metrics_->counter("transport.connects")),
      reconnects_(&metrics_->counter("transport.reconnects")),
      connect_failures_(&metrics_->counter("transport.connect_failures")),
      accepts_(&metrics_->counter("transport.accepts")),
      send_queue_bytes_(&metrics_->gauge("transport.send_queue_bytes")),
      rng_(config_.seed) {
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  PSMR_CHECK(wake_fd_ >= 0);
  PSMR_CHECK(poller_.add(wake_fd_, EPOLLIN, make_tag(kTagWake, 0)));
  io_thread_ = std::thread([this] { io_loop(); });
}

SocketTransport::~SocketTransport() { shutdown(); }

SocketEndpoint* SocketTransport::register_process(ProcessId id) {
  std::lock_guard lk(mu_);
  PSMR_CHECK(!endpoints_.contains(id));
  auto it = config_.peers.find(id);
  PSMR_CHECK(it != config_.peers.end());

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  PSMR_CHECK(fd >= 0);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  PSMR_CHECK(resolve(it->second, 0, sa));
  PSMR_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) == 0);
  PSMR_CHECK(::listen(fd, 128) == 0);

  Listener l;
  l.fd = fd;
  l.id = id;
  socklen_t len = sizeof(sa);
  PSMR_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) == 0);
  l.port = ntohs(sa.sin_port);
  // epoll_ctl is safe against a concurrent epoll_wait in the IO thread.
  PSMR_CHECK(poller_.add(fd, EPOLLIN, make_tag(kTagListener, id)));
  listeners_.emplace(id, l);

  auto ep = std::make_unique<SocketEndpoint>(id);
  SocketEndpoint* raw = ep.get();
  endpoints_.emplace(id, std::move(ep));
  return raw;
}

std::uint16_t SocketTransport::listen_port(ProcessId id) const {
  std::lock_guard lk(mu_);
  auto it = listeners_.find(id);
  return it == listeners_.end() ? 0 : it->second.port;
}

void SocketTransport::set_peer(ProcessId id, SocketAddr addr) {
  std::lock_guard lk(mu_);
  config_.peers[id] = std::move(addr);
}

bool SocketTransport::send(ProcessId from, ProcessId to, SocketMessage msg) {
  {
    std::lock_guard lk(mu_);
    if (shutdown_) return false;
    if (auto it = endpoints_.find(to); it != endpoints_.end()) {
      // Local destination: no socket, straight into the inbox (mirrors the
      // simulated net's zero-delay path). The inbox is unbounded, so push
      // can only fail when the queue is closed (shutdown race) — then the
      // message was not enqueued and we report that.
      if (!it->second->inbox_.push(SocketEnvelope{from, to, std::move(msg)})) {
        return false;
      }
      local_deliveries_->add();
      return true;
    }
    auto pit = config_.peers.find(to);
    if (pit == config_.peers.end()) return false;  // unknown destination

    Outbound& ob = outbound_[to];
    ob.peer = to;
    const std::size_t framed_size = kFrameHeaderBytes + msg.size();
    if (ob.pending_bytes + framed_size > config_.send_buffer_bytes) {
      // Shed at the cap: fair-lossy semantics, the retry/dedup path above
      // this transport re-covers anything that mattered.
      sends_dropped_->add();
      return true;
    }
    // Write-through keeps the frame order: it runs only with nothing queued
    // ahead, and under mu_, so no other sender or the IO thread interleaves.
    const bool direct = ob.state == Outbound::State::kConnected && ob.pending.empty();
    std::size_t written = 0;
    if (direct && write_through(ob, from, to, msg, written)) return true;
    std::vector<std::uint8_t> framed;
    framed.reserve(framed_size);
    append_frame(framed, from, to, msg);
    ob.pending.push_back(std::move(framed));
    ob.pending_bytes += framed_size;
    total_pending_bytes_ += framed_size;
    send_queue_bytes_->set(static_cast<double>(total_pending_bytes_));
    if (direct) {
      // A short write, EAGAIN or a hard error: the IO thread finishes the
      // frame from `written` on when the socket turns writable, or fails the
      // connection through its usual path (epoll reports the error).
      ob.first_offset = written;
      poller_.mod(ob.fd, EPOLLOUT, make_tag(kTagOutbound, ob.peer));
      return true;
    }
  }
  wake();
  return true;
}

bool SocketTransport::write_through(Outbound& ob, ProcessId from, ProcessId to,
                                    const SocketMessage& msg, std::size_t& written) {
  std::array<std::uint8_t, kFrameHeaderBytes> header;
  write_frame_header(header.data(), from, to, static_cast<std::uint32_t>(msg.size()));
  std::array<iovec, 2> iov{iovec{header.data(), header.size()},
                           iovec{const_cast<std::uint8_t*>(msg.data()), msg.size()}};
  msghdr mh{};
  mh.msg_iov = iov.data();
  mh.msg_iovlen = msg.empty() ? 1 : 2;
  const ssize_t n = ::sendmsg(ob.fd, &mh, MSG_NOSIGNAL | MSG_DONTWAIT);
  if (n <= 0) return false;
  written = static_cast<std::size_t>(n);
  bytes_sent_->add(written);
  if (written < header.size() + msg.size()) return false;
  frames_sent_->add();
  write_through_frames_->add();
  return true;
}

void SocketTransport::send_to_all(ProcessId from, const std::vector<ProcessId>& group,
                                  const SocketMessage& msg) {
  for (ProcessId to : group) send(from, to, msg);
}

void SocketTransport::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void SocketTransport::shutdown() {
  {
    std::lock_guard lk(mu_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  wake();
  if (io_thread_.joinable()) io_thread_.join();

  std::lock_guard lk(mu_);
  for (auto& [id, l] : listeners_) {
    if (l.fd >= 0) {
      poller_.del(l.fd);
      ::close(l.fd);
      l.fd = -1;
    }
  }
  for (auto& [id, ob] : outbound_) close_outbound_fd(ob);
  for (auto& [iid, in] : inbound_) {
    if (in->fd >= 0) {
      poller_.del(in->fd);
      ::close(in->fd);
      in->fd = -1;
    }
  }
  inbound_.clear();
  if (wake_fd_ >= 0) {
    poller_.del(wake_fd_);
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  for (auto& [id, ep] : endpoints_) ep->inbox_.close();
}

std::chrono::milliseconds SocketTransport::next_backoff(Outbound& ob) {
  // Decorrelated jitter (the proxy retry path uses the same scheme):
  // next = min(cap, U[base, 3 * previous]), previous starting at base.
  const auto base = config_.reconnect_base;
  const auto prev = ob.last_backoff.count() > 0 ? ob.last_backoff : base;
  const std::int64_t lo = base.count();
  const std::int64_t hi = std::max<std::int64_t>(lo + 1, 3 * prev.count());
  const std::int64_t pick =
      lo + static_cast<std::int64_t>(rng_.next_below(static_cast<std::uint64_t>(hi - lo)));
  const auto next = std::min<std::chrono::milliseconds>(
      config_.reconnect_cap, std::chrono::milliseconds(pick));
  ob.last_backoff = next;
  return next;
}

void SocketTransport::close_outbound_fd(Outbound& ob) {
  if (ob.fd >= 0) {
    poller_.del(ob.fd);
    ::close(ob.fd);
    ob.fd = -1;
  }
}

void SocketTransport::fail_outbound(Outbound& ob) {
  const bool was_attempting =
      ob.state == Outbound::State::kConnecting || ob.state == Outbound::State::kConnected;
  close_outbound_fd(ob);
  ob.state = Outbound::State::kBackoff;
  ob.first_offset = 0;  // the partially written head frame is resent whole
  ob.backoff_until = std::chrono::steady_clock::now() + next_backoff(ob);
  if (was_attempting) connect_failures_->add();
}

void SocketTransport::start_connect(Outbound& ob) {
  auto pit = config_.peers.find(ob.peer);
  if (pit == config_.peers.end()) return;
  sockaddr_in sa{};
  if (!resolve(pit->second, 0, sa)) {
    fail_outbound(ob);
    return;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    fail_outbound(ob);
    return;
  }
  set_nodelay(fd);
  ob.fd = fd;
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (rc == 0) {
    ob.state = Outbound::State::kConnected;
    (ob.was_connected ? reconnects_ : connects_)->add();
    ob.was_connected = true;
    ob.last_backoff = std::chrono::milliseconds{0};
    if (!poller_.add(fd, ob.pending.empty() ? 0u : EPOLLOUT, make_tag(kTagOutbound, ob.peer))) {
      fail_outbound(ob);
      return;
    }
    flush_outbound(ob);
  } else if (errno == EINPROGRESS) {
    ob.state = Outbound::State::kConnecting;
    if (!poller_.add(fd, EPOLLOUT, make_tag(kTagOutbound, ob.peer))) fail_outbound(ob);
  } else {
    fail_outbound(ob);
  }
}

void SocketTransport::flush_outbound(Outbound& ob) {
  while (!ob.pending.empty()) {
    const std::vector<std::uint8_t>& head = ob.pending.front();
    const std::size_t remaining = head.size() - ob.first_offset;
    const ssize_t n = ::send(ob.fd, head.data() + ob.first_offset, remaining,
                             MSG_NOSIGNAL);
    if (n > 0) {
      bytes_sent_->add(static_cast<std::uint64_t>(n));
      ob.first_offset += static_cast<std::size_t>(n);
      if (ob.first_offset == head.size()) {
        ob.pending_bytes -= head.size();
        total_pending_bytes_ -= head.size();
        ob.pending.pop_front();
        ob.first_offset = 0;
        frames_sent_->add();
      }
      continue;  // short write: loop re-sends the tail of the head frame
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      poller_.mod(ob.fd, EPOLLOUT, make_tag(kTagOutbound, ob.peer));
      send_queue_bytes_->set(static_cast<double>(total_pending_bytes_));
      return;
    }
    fail_outbound(ob);
    send_queue_bytes_->set(static_cast<double>(total_pending_bytes_));
    return;
  }
  send_queue_bytes_->set(static_cast<double>(total_pending_bytes_));
  poller_.mod(ob.fd, 0, make_tag(kTagOutbound, ob.peer));
}

void SocketTransport::accept_ready(Listener& l) {
  for (;;) {
    const int fd = ::accept4(l.fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: nothing more to accept
    set_nodelay(fd);
    accepts_->add();
    const std::uint64_t iid = next_inbound_id_++;
    auto in = std::make_unique<Inbound>();
    in->fd = fd;
    if (!poller_.add(fd, EPOLLIN, make_tag(kTagInbound, iid))) {
      ::close(fd);
      continue;
    }
    inbound_.emplace(iid, std::move(in));
  }
}

void SocketTransport::deliver_frame(Frame&& f) {
  auto it = endpoints_.find(f.to);
  if (it == endpoints_.end()) {
    frames_misrouted_->add();
    return;
  }
  if (it->second->inbox_.push(SocketEnvelope{f.from, f.to, std::move(f.payload)})) {
    frames_received_->add();
  }
}

bool SocketTransport::read_ready(Inbound& in) {
  std::array<std::uint8_t, 64 * 1024> buf;
  for (;;) {
    const ssize_t n = ::recv(in.fd, buf.data(), buf.size(), 0);
    if (n > 0) {
      bytes_received_->add(static_cast<std::uint64_t>(n));
      if (!in.reader.feed(std::span<const std::uint8_t>(buf.data(),
                                                        static_cast<std::size_t>(n)))) {
        // Stream out of sync: drop the connection; the peer reconnects and
        // the outer retry path re-covers lost traffic.
        protocol_errors_->add();
        return false;
      }
      while (auto f = in.reader.next()) deliver_frame(std::move(*f));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;  // EOF or hard error
  }
}

void SocketTransport::io_loop() {
  std::array<epoll_event, 64> events;
  for (;;) {
    int timeout_ms = -1;
    {
      std::lock_guard lk(mu_);
      if (shutdown_) return;
      const auto now = std::chrono::steady_clock::now();
      for (auto& [id, ob] : outbound_) {
        if (ob.pending.empty()) continue;
        switch (ob.state) {
          case Outbound::State::kIdle:
            start_connect(ob);
            break;
          case Outbound::State::kBackoff:
            if (now >= ob.backoff_until) {
              start_connect(ob);
            } else {
              const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                                    ob.backoff_until - now)
                                    .count() +
                                1;
              timeout_ms = timeout_ms < 0
                               ? static_cast<int>(left)
                               : std::min(timeout_ms, static_cast<int>(left));
            }
            break;
          case Outbound::State::kConnected:
            // New frames queued since the last drain: re-arm EPOLLOUT (a
            // level-triggered no-op when already armed).
            poller_.mod(ob.fd, EPOLLOUT, make_tag(kTagOutbound, ob.peer));
            break;
          case Outbound::State::kConnecting:
            break;
        }
      }
    }

    const int n = poller_.wait(events, timeout_ms);

    std::lock_guard lk(mu_);
    if (shutdown_) return;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[static_cast<std::size_t>(i)].data.u64;
      const std::uint32_t ev = events[static_cast<std::size_t>(i)].events;
      const auto kind = static_cast<TagKind>(tag >> 32);
      const std::uint32_t key = static_cast<std::uint32_t>(tag & 0xffffffffULL);
      switch (kind) {
        case kTagWake: {
          std::uint64_t drained = 0;
          [[maybe_unused]] ssize_t r = ::read(wake_fd_, &drained, sizeof(drained));
          break;
        }
        case kTagListener: {
          auto it = listeners_.find(key);
          if (it != listeners_.end()) accept_ready(it->second);
          break;
        }
        case kTagOutbound: {
          auto it = outbound_.find(key);
          if (it == outbound_.end()) break;
          Outbound& ob = it->second;
          if (ob.fd < 0) break;
          if (ev & (EPOLLERR | EPOLLHUP)) {
            fail_outbound(ob);
            break;
          }
          if (ob.state == Outbound::State::kConnecting) {
            int err = 0;
            socklen_t len = sizeof(err);
            ::getsockopt(ob.fd, SOL_SOCKET, SO_ERROR, &err, &len);
            if (err != 0) {
              fail_outbound(ob);
              break;
            }
            ob.state = Outbound::State::kConnected;
            (ob.was_connected ? reconnects_ : connects_)->add();
            ob.was_connected = true;
            ob.last_backoff = std::chrono::milliseconds{0};
          }
          flush_outbound(ob);
          break;
        }
        case kTagInbound: {
          auto it = inbound_.find(key);
          if (it == inbound_.end()) break;
          if (!read_ready(*it->second) || (ev & (EPOLLERR | EPOLLHUP))) {
            poller_.del(it->second->fd);
            ::close(it->second->fd);
            inbound_.erase(it);
          }
          break;
        }
      }
    }
  }
}

}  // namespace psmr::net
