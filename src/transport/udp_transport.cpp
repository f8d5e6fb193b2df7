#include "transport/udp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <vector>

#include "transport/send_retry.h"

namespace marea::transport {

namespace {

// Datagrams per recvmmsg batch, and batches drained per epoll event
// before yielding to other sockets.
constexpr int kRecvBatch = 8;
constexpr int kMaxBatchesPerEvent = 4;

// If the kernel reports ENOSYS for recvmmsg/sendmmsg, the batch degrades
// to one recvmsg/sendmsg per call.
std::atomic<bool> g_mmsg_enosys{false};

int recv_batch(int fd, mmsghdr* msgs, unsigned int n) {
  if (!g_mmsg_enosys.load(std::memory_order_relaxed)) {
    int got = recvmmsg(fd, msgs, n, MSG_DONTWAIT, nullptr);
    if (got >= 0 || errno != ENOSYS) return got;
    g_mmsg_enosys.store(true, std::memory_order_relaxed);
  }
  ssize_t got = recvmsg(fd, &msgs[0].msg_hdr, MSG_DONTWAIT);
  if (got < 0) return -1;
  msgs[0].msg_len = static_cast<unsigned int>(got);
  return 1;
}

int send_mmsg(int fd, mmsghdr* msgs, unsigned int n) {
  if (!g_mmsg_enosys.load(std::memory_order_relaxed)) {
    int sent = sendmmsg(fd, msgs, n, 0);
    if (sent >= 0 || errno != ENOSYS) return sent;
    g_mmsg_enosys.store(true, std::memory_order_relaxed);
  }
  unsigned int sent = 0;
  for (; sent < n; ++sent) {
    ssize_t rc = sendmsg(fd, &msgs[sent].msg_hdr, 0);
    if (rc < 0) return sent > 0 ? static_cast<int>(sent) : -1;
    msgs[sent].msg_len = static_cast<unsigned int>(rc);
  }
  return static_cast<int>(sent);
}

}  // namespace

UdpTransport::UdpTransport(const std::string& local_ip,
                           LiveTransportOptions options)
    : LiveTransport(local_ip, options, "UdpTransport") {
  epoll_fd_ = epoll_create1(0);
  if (epoll_fd_ < 0) {
    throw std::runtime_error("UdpTransport: epoll_create1 failed");
  }
  if (pipe(wake_pipe_) != 0) {
    ::close(epoll_fd_);
    throw std::runtime_error("UdpTransport: pipe() failed");
  }
  fcntl(wake_pipe_[0], F_SETFL, O_NONBLOCK);
  fcntl(wake_pipe_[1], F_SETFL, O_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // token 0 = wake pipe
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_pipe_[0], &ev) != 0) {
    ::close(epoll_fd_);
    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    throw std::runtime_error("UdpTransport: epoll_ctl(wake) failed");
  }
  running_ = true;
  poller_ = std::thread([this] { poll_loop(); });
}

UdpTransport::~UdpTransport() {
  // Stop publishing counters before the machinery winds down.
  detach_obs();
  running_ = false;
  char byte = 1;
  ssize_t n = write(wake_pipe_[1], &byte, 1);
  (void)n;
  if (poller_.joinable()) poller_.join();
  ::close(epoll_fd_);
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

Status UdpTransport::arm(const SocketPtr& s) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = s->token;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, s->fd, &ev) != 0) {
    return internal_error("epoll_ctl(ADD) failed");
  }
  return Status::ok();
}

void UdpTransport::disarm(const SocketPtr& s) {
  // DEL while the fd is still open (the Socket owns it until the last
  // reference — possibly held by the poll thread mid-dispatch — dies, so
  // the fd number cannot be reused under a reader).
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, s->fd, nullptr);
}

size_t UdpTransport::send_batch(int fd, mmsghdr* msgs, size_t n,
                                size_t payload_bytes) {
  const SendRetryResult r = retry_send_batches(
      n, SendRetryPolicy{}, [&](size_t done, size_t remaining) {
        int sent = send_mmsg(fd, msgs + done,
                             static_cast<unsigned int>(remaining));
        return sent >= 0 ? sent : -errno;
      });
  stats_.sendmmsg_short.fetch_add(r.short_accepts, std::memory_order_relaxed);
  return count_sent(r.accepted, n - r.accepted, r.error, payload_bytes);
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

struct UdpTransport::RecvScratch {
  FrameLease leases[kRecvBatch];
  iovec iovs[kRecvBatch];
  sockaddr_in froms[kRecvBatch];
  mmsghdr msgs[kRecvBatch];
};

void UdpTransport::drain_socket(const Socket& s, RecvScratch& scratch) {
  for (int round = 0; round < kMaxBatchesPerEvent; ++round) {
    for (int i = 0; i < kRecvBatch; ++i) {
      // A lease delivered last round was consumed; a dropped one is
      // reused as is.
      if (!scratch.leases[i].valid()) {
        scratch.leases[i] = frame_pool().acquire(options_.recv_buffer);
      }
      Buffer& buf = scratch.leases[i].buffer();
      buf.resize(options_.recv_buffer);
      scratch.iovs[i] = iovec{buf.data(), buf.size()};
      scratch.msgs[i] = mmsghdr{};
      scratch.msgs[i].msg_hdr.msg_iov = &scratch.iovs[i];
      scratch.msgs[i].msg_hdr.msg_iovlen = 1;
      scratch.msgs[i].msg_hdr.msg_name = &scratch.froms[i];
      scratch.msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    }
    int got = recv_batch(s.fd, scratch.msgs, kRecvBatch);
    if (got < 0) {
      if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        stats_.recv_errors.fetch_add(1, std::memory_order_relaxed);
        trace_drop(obs::TraceEvent::kDrop, static_cast<uint64_t>(errno), 0);
      }
      return;
    }
    if (got == 0) return;
    stats_.recv_batches.fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < got; ++i) {
      const Address from{ntohl(scratch.froms[i].sin_addr.s_addr),
                         ntohs(scratch.froms[i].sin_port)};
      deliver(s, from, scratch.msgs[i].msg_len,
              (scratch.msgs[i].msg_hdr.msg_flags & MSG_TRUNC) != 0,
              scratch.leases[i], 0);
    }
    if (got < kRecvBatch) return;  // queue drained
  }
}

void UdpTransport::poll_loop() {
  constexpr int kMaxEvents = 16;
  epoll_event events[kMaxEvents];
  RecvScratch scratch;
  while (running_.load(std::memory_order_acquire)) {
    // The 100 ms timeout is only a shutdown backstop; the destructor's
    // wake-pipe write interrupts the wait.
    int n = epoll_wait(epoll_fd_, events, kMaxEvents, 100);
    if (n < 0) {
      if (errno != EINTR) {
        stats_.recv_errors.fetch_add(1, std::memory_order_relaxed);
      }
      continue;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t token = events[i].data.u64;
      if (token == 0) {
        char drain[64];
        while (read(wake_pipe_[0], drain, sizeof drain) > 0) {
        }
        continue;
      }
      // Tokens are never reused: an event for a since-closed socket
      // resolves to nothing here and is inert — it cannot alias a newer
      // socket that happens to occupy the same fd number.
      SocketPtr s = socket_for(token);
      if (!s) continue;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        // Clear the pending socket error (e.g. a routed ICMP) so a
        // level-triggered wait does not spin on it; EPOLLIN data below
        // still drains normally.
        int err = 0;
        socklen_t len = sizeof err;
        getsockopt(s->fd, SOL_SOCKET, SO_ERROR, &err, &len);
        stats_.socket_errors.fetch_add(1, std::memory_order_relaxed);
        trace_drop(obs::TraceEvent::kDrop, static_cast<uint64_t>(err),
                   s->port);
      }
      if (events[i].events & EPOLLIN) drain_socket(*s, scratch);
    }
  }
}

}  // namespace marea::transport
