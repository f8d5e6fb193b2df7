#include "transport/live_transport.h"

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <unordered_map>

#include "transport/socket_setup.h"
#include "transport/udp_transport.h"
#include "transport/uring_transport.h"

namespace marea::transport {

HostId ipv4_host(const std::string& dotted) {
  in_addr addr{};
  if (inet_pton(AF_INET, dotted.c_str(), &addr) != 1) return 0;
  return ntohl(addr.s_addr);
}

std::string host_to_ipv4(HostId host) {
  in_addr addr{};
  addr.s_addr = htonl(host);
  char buf[INET_ADDRSTRLEN] = {};
  inet_ntop(AF_INET, &addr, buf, sizeof buf);
  return buf;
}

bool parse_backend(const std::string& name, TransportBackend* out) {
  if (name == "auto") {
    *out = TransportBackend::kAuto;
  } else if (name == "epoll") {
    *out = TransportBackend::kEpoll;
  } else if (name == "uring") {
    *out = TransportBackend::kUring;
  } else {
    return false;
  }
  return true;
}

const char* backend_label(TransportBackend backend) {
  switch (backend) {
    case TransportBackend::kAuto:
      return "auto";
    case TransportBackend::kEpoll:
      return "epoll";
    case TransportBackend::kUring:
      return "uring";
  }
  return "?";
}

TransportBackend resolve_backend(TransportBackend requested) {
  if (requested != TransportBackend::kAuto) return requested;
  if (const char* env = std::getenv("MAREA_TRANSPORT")) {
    TransportBackend from_env = TransportBackend::kAuto;
    if (parse_backend(env, &from_env) &&
        from_env != TransportBackend::kAuto) {
      // The env var is advisory (it steers whole test runs): a uring ask
      // on a kernel without support degrades to epoll instead of failing
      // every transport construction in the process.
      if (from_env == TransportBackend::kUring && !uring_supported()) {
        return TransportBackend::kEpoll;
      }
      return from_env;
    }
  }
  return uring_supported() ? TransportBackend::kUring
                           : TransportBackend::kEpoll;
}

std::unique_ptr<LiveTransport> make_live_transport(
    const std::string& local_ip, const TransportConfig& config) {
  switch (resolve_backend(config.backend)) {
    case TransportBackend::kUring:
      return std::make_unique<UringTransport>(local_ip, config.options);
    default:
      return std::make_unique<UdpTransport>(local_ip, config.options);
  }
}

struct LiveTransport::Table {
  ~Table() {
    if (send_fd >= 0) ::close(send_fd);
  }
  // Guards everything below. Never held across a blocking syscall.
  std::mutex mu;
  std::unordered_map<uint64_t, SocketPtr> by_key;  // see key_of
  std::unordered_map<uint64_t, SocketPtr> by_token;
  uint64_t next_token = 1;
  std::vector<Address> peers;
  int send_fd = -1;  // shared send socket, opened on first use
  uint16_t last_ephemeral_port = 0;
};

namespace {

uint64_t key_of(uint16_t port, bool multicast, GroupId group) {
  return multicast ? ((1ull << 32) | group) : port;
}

}  // namespace

LiveTransport::LiveTransport(const std::string& local_ip,
                             LiveTransportOptions options, const char* who)
    : options_(options),
      local_host_(ipv4_host(local_ip)),
      table_(std::make_unique<Table>()) {
  if (local_host_ == 0) {
    throw std::runtime_error(std::string(who) + ": bad local ip " + local_ip);
  }
}

LiveTransport::~LiveTransport() {
  detach_obs();
}

LiveTransport::Socket::~Socket() {
  if (fd >= 0) ::close(fd);
}

void LiveTransport::detach_obs() {
  obs::Observability* obs = nullptr;
  uint64_t token = 0;
  {
    std::lock_guard lock(obs_mu_);
    obs = obs_;
    token = obs_token_;
    obs_ = nullptr;
    obs_token_ = 0;
  }
  if (obs && token != 0) obs->metrics.remove_collector(token);
}

void LiveTransport::set_obs(obs::Observability* obs,
                            const std::string& prefix) {
  detach_obs();
  if (!obs) return;
  uint64_t token = obs->metrics.add_collector(
      [this, p = prefix + "."](obs::MetricsRegistry& reg) {
        NetCounters c = net_counters();
        reg.counter(p + "frames_sent").set(c.frames_sent);
        reg.counter(p + "bytes_sent").set(c.bytes_sent);
        reg.counter(p + "frames_received").set(c.frames_received);
        reg.counter(p + "bytes_received").set(c.bytes_received);
        reg.counter(p + "drops_truncated").set(c.drops_truncated);
        reg.counter(p + "send_errors").set(c.send_errors);
        reg.counter(p + "recv_errors").set(c.recv_errors);
        reg.counter(p + "socket_errors").set(c.socket_errors);
        reg.counter(p + "recv_batches").set(c.recv_batches);
        reg.counter(p + "own_copies_filtered").set(c.own_copies_filtered);
        // Same meaning as the sim's net.payload_* datapath counters:
        // payload buffer heap allocations and user-space payload copies
        // (the kernel's per-destination copy is inherent to UDP and shows
        // up as bytes_sent/bytes_received instead).
        const FramePool::Stats ps = pool_.stats();
        reg.counter(p + "payload_allocs").set(ps.slab_allocs);
        reg.counter(p + "payload_copies").set(c.payload_copies);
        reg.counter(p + "payload_bytes_copied").set(c.payload_bytes_copied);
        reg.counter(p + "sendmmsg_short").set(c.sendmmsg_short);
        // io_uring datapath counters — identically zero on epoll, so one
        // dashboard schema covers both backends.
        reg.counter(p + "uring_sqe_submitted").set(c.uring_sqe_submitted);
        reg.counter(p + "uring_cqe_batch").set(c.uring_cqe_batch);
        reg.counter(p + "uring_buf_ring_refills")
            .set(c.uring_buf_ring_refills);
        reg.counter(p + "uring_short_submits").set(c.uring_short_submits);
        reg.counter(p + "pool_checkouts").set(ps.checkouts);
        reg.counter(p + "pool_hits").set(ps.pool_hits);
      });
  std::lock_guard lock(obs_mu_);
  obs_ = obs;
  obs_token_ = token;
}

LiveTransport::NetCounters LiveTransport::net_counters() const {
  NetCounters c;
  const auto ld = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  c.frames_sent = ld(stats_.frames_sent);
  c.bytes_sent = ld(stats_.bytes_sent);
  c.frames_received = ld(stats_.frames_received);
  c.bytes_received = ld(stats_.bytes_received);
  c.drops_truncated = ld(stats_.drops_truncated);
  c.send_errors = ld(stats_.send_errors);
  c.recv_errors = ld(stats_.recv_errors);
  c.socket_errors = ld(stats_.socket_errors);
  c.recv_batches = ld(stats_.recv_batches);
  c.own_copies_filtered = ld(stats_.own_copies_filtered);
  const FramePool::Stats ps = pool_.stats();
  c.payload_copies = ps.copies_in;
  c.payload_bytes_copied = ps.bytes_copied_in;
  c.sendmmsg_short = ld(stats_.sendmmsg_short);
  c.uring_sqe_submitted = ld(stats_.uring_sqe_submitted);
  c.uring_cqe_batch = ld(stats_.uring_cqe_batch);
  c.uring_buf_ring_refills = ld(stats_.uring_buf_ring_refills);
  c.uring_short_submits = ld(stats_.uring_short_submits);
  return c;
}

void LiveTransport::set_peers(std::vector<HostId> peers) {
  std::vector<Address> addrs;
  addrs.reserve(peers.size());
  for (HostId h : peers) addrs.push_back(Address{h, 0});
  set_peers(std::move(addrs));
}

void LiveTransport::set_peers(std::vector<Address> peers) {
  std::lock_guard lock(table_->mu);
  table_->peers = std::move(peers);
}

uint16_t LiveTransport::bound_port(uint16_t requested) const {
  if (requested != 0) return requested;
  std::lock_guard lock(table_->mu);
  return table_->last_ephemeral_port;
}

// ---------------------------------------------------------------------------
// Socket table
// ---------------------------------------------------------------------------

Status LiveTransport::open_socket(uint16_t port, FrameRecvHandler handler,
                                  bool multicast, GroupId group) {
  Table& t = *table_;
  const bool ephemeral = !multicast && port == 0;
  std::string err;
  auto sock = std::make_shared<Socket>();
  sock->fd =
      detail::open_live_socket(local_host_, &port, multicast, group, &err);
  if (sock->fd < 0) return internal_error(err);
  sock->port = port;
  sock->is_multicast = multicast;
  sock->group = group;
  sock->handler = std::move(handler);

  const uint64_t key = key_of(port, multicast, group);
  std::lock_guard lock(t.mu);
  if (t.by_key.count(key)) {
    return already_exists_error("port/group already bound");
  }
  // The canonical multicast UDP port of a joined group and a caller's
  // unicast port share one number space: SO_REUSEPORT would let both
  // bind and silently split or cross-deliver traffic, so the collision
  // is rejected here instead of at delivery time.
  for (const auto& [k, other] : t.by_key) {
    if (other->is_multicast != multicast && other->port == port) {
      return already_exists_error(
          multicast ? "multicast_port(" + std::to_string(group) +
                          ") collides with bound unicast port " +
                          std::to_string(port)
                    : "port " + std::to_string(port) +
                          " collides with multicast_port of joined group " +
                          std::to_string(other->group));
    }
  }
  sock->token = t.next_token++;
  if (Status s = arm(sock); !s.is_ok()) return s;
  t.by_key[key] = sock;
  t.by_token[sock->token] = sock;
  if (ephemeral) t.last_ephemeral_port = port;
  return Status::ok();
}

void LiveTransport::close_socket(uint64_t key) {
  Table& t = *table_;
  SocketPtr sock;  // released (closing the fd) after the lock
  std::lock_guard lock(t.mu);
  auto it = t.by_key.find(key);
  if (it == t.by_key.end()) return;
  sock = std::move(it->second);
  t.by_key.erase(it);
  t.by_token.erase(sock->token);
  sock->closed.store(true, std::memory_order_release);
  disarm(sock);
}

LiveTransport::SocketPtr LiveTransport::socket_for(uint64_t token) const {
  Table& t = *table_;
  std::lock_guard lock(t.mu);
  auto it = t.by_token.find(token);
  return it != t.by_token.end() ? it->second : nullptr;
}

Status LiveTransport::bind_frames(uint16_t port, FrameRecvHandler handler) {
  if (!handler) return invalid_argument_error("bind_frames: empty handler");
  return open_socket(port, std::move(handler), false, 0);
}

void LiveTransport::unbind(uint16_t port) {
  close_socket(key_of(port, false, 0));
}

Status LiveTransport::join_group(GroupId group, uint16_t port) {
  // Deliveries for the group are handed to the handler of the member's
  // already-bound unicast port; the group socket itself binds the
  // canonical multicast UDP port.
  Table& t = *table_;
  FrameRecvHandler handler;
  {
    std::lock_guard lock(t.mu);
    auto it = t.by_key.find(key_of(port, false, 0));
    if (it == t.by_key.end()) {
      return failed_precondition_error(
          "join_group: bind the member port first");
    }
    handler = it->second->handler;
  }
  return open_socket(multicast_port(group), std::move(handler), true, group);
}

void LiveTransport::leave_group(GroupId group, uint16_t) {
  close_socket(key_of(0, true, group));
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

int LiveTransport::resolve_send_fd(uint16_t src_port, SocketPtr& pin) {
  Table& t = *table_;
  std::lock_guard lock(t.mu);
  if (auto it = t.by_key.find(key_of(src_port, false, 0));
      it != t.by_key.end()) {
    pin = it->second;
    return pin->fd;
  }
  if (t.send_fd < 0) {
    std::string err;
    uint16_t port = 0;
    t.send_fd = detail::open_live_socket(local_host_, &port, false, 0, &err);
  }
  return t.send_fd;
}

Status LiveTransport::send_to(uint16_t src_port, const Address* dst,
                              size_t n_dst, uint16_t fallback_port,
                              BytesView data) {
  SocketPtr pin;
  const int fd = resolve_send_fd(src_port, pin);
  if (fd < 0) return internal_error("no send socket");
  // The syscalls run outside the lock (`pin` keeps the fd alive): a slow
  // send never stalls receive dispatch or other senders. Every
  // destination's iovec points at the SAME payload bytes: one shared
  // frame, N kernel copies, zero user-space copies.
  sockaddr_in addrs[kSendBatch];
  mmsghdr msgs[kSendBatch];
  iovec iov{const_cast<uint8_t*>(data.data()), data.size()};
  Status last = Status::ok();
  for (size_t i = 0; i < n_dst;) {
    const size_t batch = std::min(kSendBatch, n_dst - i);
    for (size_t j = 0; j < batch; ++j, ++i) {
      addrs[j] = detail::make_addr(
          dst[i].host, dst[i].port != 0 ? dst[i].port : fallback_port);
      msgs[j] = mmsghdr{};
      msgs[j].msg_hdr.msg_name = &addrs[j];
      msgs[j].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      msgs[j].msg_hdr.msg_iov = &iov;
      msgs[j].msg_hdr.msg_iovlen = 1;
    }
    if (send_batch(fd, msgs, batch, data.size()) < batch) {
      last = unavailable_error("send failed");
    }
  }
  return last;
}

size_t LiveTransport::count_sent(size_t sent, size_t failed, int err,
                                 size_t payload_bytes) {
  if (failed > 0) {
    stats_.send_errors.fetch_add(failed, std::memory_order_relaxed);
    trace_drop(obs::TraceEvent::kDrop, static_cast<uint64_t>(err),
               payload_bytes);
  }
  if (sent > 0) {
    stats_.frames_sent.fetch_add(sent, std::memory_order_relaxed);
    stats_.bytes_sent.fetch_add(sent * payload_bytes,
                                std::memory_order_relaxed);
  }
  return sent;
}

Status LiveTransport::send_frame(uint16_t src_port, Address dst,
                                 SharedFrame frame) {
  return send_to(src_port, &dst, 1, 0, frame.view());
}

Status LiveTransport::send_frame_multicast(uint16_t src_port, GroupId group,
                                           SharedFrame frame) {
  const Address dst{detail::group_host(group), multicast_port(group)};
  return send_to(src_port, &dst, 1, 0, frame.view());
}

Status LiveTransport::send_frame_broadcast(uint16_t src_port,
                                           uint16_t dst_port,
                                           SharedFrame frame) {
  Table& t = *table_;
  // Fixed-size stack fan-out state: no per-send heap allocation for
  // realistic avionics peer counts (heap fallback above that).
  constexpr size_t kStackPeers = 16;
  Address stack_peers[kStackPeers];
  std::vector<Address> heap_peers;
  Address* peers = stack_peers;
  size_t n_peers = 0;
  {
    std::lock_guard lock(t.mu);
    if (t.peers.size() > kStackPeers) {
      heap_peers.resize(t.peers.size());
      peers = heap_peers.data();
    }
    // Self-filter under the lock, where our bound ports are knowable: a
    // port-less peer entry on our own host is always us; an explicit
    // port is us only if one of our sockets holds it (multi-process
    // topologies share one host address across processes).
    for (const Address& p : t.peers) {
      if (p.host == local_host_ &&
          (p.port == 0 || t.by_key.count(key_of(p.port, false, 0)))) {
        continue;
      }
      peers[n_peers++] = p;
    }
  }
  return send_to(src_port, peers, n_peers, dst_port, frame.view());
}

Status LiveTransport::send_frame_to_many(uint16_t src_port,
                                         const Address* dst, size_t n_dst,
                                         const SharedFrame& frame) {
  // The destination list is caller-owned and already filtered (gateway
  // subscribers): no peer-table copy and no self check.
  return send_to(src_port, dst, n_dst, 0, frame.view());
}

// ---------------------------------------------------------------------------
// Receive contract
// ---------------------------------------------------------------------------

void LiveTransport::deliver(const Socket& s, Address from, size_t len,
                            bool truncated, FrameLease& lease,
                            size_t offset) {
  if (truncated) {
    // The kernel clipped the datagram to our buffer: delivering it would
    // hand decode a silently corrupted frame. Drop loudly.
    stats_.drops_truncated.fetch_add(1, std::memory_order_relaxed);
    trace_drop(obs::TraceEvent::kDrop,
               (static_cast<uint64_t>(from.host) << 16) | from.port, len);
    return;
  }
  stats_.frames_received.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_received.fetch_add(len, std::memory_order_relaxed);
  if (s.closed.load(std::memory_order_acquire)) return;
  if (s.is_multicast && from.host == local_host_) {
    stats_.own_copies_filtered.fetch_add(1, std::memory_order_relaxed);
    return;  // our own loopback copy
  }
  // Publish exactly the datagram — no realloc, no fill, no copy — and
  // hand the refcounted slab over.
  s.handler(from, std::move(lease).freeze_payload(offset, len));
}

void LiveTransport::trace_drop(obs::TraceEvent ev, uint64_t a, uint64_t b) {
  std::lock_guard lock(obs_mu_);
  if (!obs_) return;
  const int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - epoch_)
                             .count();
  obs_->trace.record(TimePoint{now_ns}, ev, obs::TraceKind::kNet,
                     local_host_ & 0xFFu, a, b);
}

}  // namespace marea::transport
