// Shared base for the kernel-backed transports (DESIGN.md "Live
// transport"). Everything that is not kernel I/O is written once here:
//
//   * the IPv4 mapping (ipv4_host, multicast_port, socket_setup.h):
//     HostId is an IPv4 address in host byte order, logical ports are UDP
//     ports on the node's address, multicast group G is IP group
//     239.77.x.y on the canonical port multicast_port(G), and broadcast
//     iterates a configured peer list;
//   * the socket table: each Socket owns its fd (closed when the last
//     reference dies, not at unbind) and carries a monotonic, never
//     reused token, so a stale kernel event can never alias a rebound
//     socket. A unicast port that collides with a joined group's
//     canonical port (or vice versa) is rejected with already_exists at
//     bind/join time instead of letting SO_REUSEPORT split the traffic;
//   * the send path: every send (unicast, multicast, broadcast, to-many)
//     resolves the source socket under the lock, builds sockaddr/mmsghdr
//     batches of 32 over one shared iovec outside it, and hands each
//     batch to the engine's send_batch hook;
//   * the receive contract (deliver): MSG_TRUNC drops, receive counters,
//     the closed check and the own-multicast-copy filter;
//   * counters, obs wiring, drop tracing and backend selection.
//
// A backend is an I/O engine behind three hooks — arm, disarm and
// send_batch — that feeds every datagram it receives to deliver().
// UdpTransport (udp_transport.h) does it with epoll + recvmmsg/sendmmsg,
// UringTransport (uring_transport.h) with multishot recvmsg and batched
// SQEs. Callers holding a LiveTransport* cannot tell them apart except
// by speed.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "transport/transport.h"

// <sys/socket.h>; only used as an opaque pointee here.
struct mmsghdr;

namespace marea::transport {

// Parses dotted-quad to HostId (host byte order). Returns 0 on error.
HostId ipv4_host(const std::string& dotted);
std::string host_to_ipv4(HostId host);

inline uint16_t multicast_port(GroupId group) {
  return static_cast<uint16_t>(30000 + (group % 20000));
}

struct LiveTransportOptions {
  // Per-datagram receive slab size: datagrams larger than this are
  // truncation-dropped. Default covers the largest UDP payload; an
  // MTU-sized deployment (bench_live) shrinks it.
  size_t recv_buffer = 65536;
  // --- io_uring backend only ---
  // Provided receive buffers registered with the kernel (power of two).
  // Each is a pooled FrameLease slab of recv_buffer bytes (+ the
  // recvmsg_out header the kernel prepends).
  unsigned uring_buf_ring = 32;
  // Completion batching window (kernels with IORING_FEAT_MIN_TIMEOUT):
  // the dispatch thread sleeps until up to 8 completions accumulate or
  // this many microseconds pass, instead of waking per datagram. Must
  // exceed the expected per-socket inter-arrival gap under load for the
  // batching to engage. Sparse traffic is NOT delayed by the window —
  // an empty window falls back to wake-on-first-completion — but a
  // datagram arriving just after a wait begins can wait out the full
  // window, so this bounds added latency under light load. 0 disables.
  unsigned uring_min_wait_us = 200;
};

enum class TransportBackend { kAuto, kEpoll, kUring };

struct TransportConfig {
  TransportBackend backend = TransportBackend::kAuto;
  LiveTransportOptions options;
};

// "auto" / "epoll" / "uring" (returns false on anything else).
bool parse_backend(const std::string& name, TransportBackend* out);
const char* backend_label(TransportBackend backend);

// True when the running kernel supports everything the uring backend
// needs: io_uring_setup, multishot recvmsg, provided buffer rings and
// EXT_ARG timed waits (kernel >= 6.0 in practice). Cached after the
// first call. MAREA_URING=off forces false (operator escape hatch).
bool uring_supported();

// kAuto resolves via $MAREA_TRANSPORT when set ("epoll"/"uring"), else
// uring when supported, else epoll. A uring request (env or explicit
// kAuto resolution) degrades to epoll when unsupported; an explicit
// kUring is returned as-is — make_live_transport throws for it so
// misconfiguration fails loudly instead of silently running epoll.
TransportBackend resolve_backend(TransportBackend requested);

class LiveTransport : public Transport {
 public:
  // Allocation-free live counters (atomics; readable from any thread).
  // The uring_* fields stay zero on the epoll backend.
  struct NetCounters {
    uint64_t frames_sent = 0;
    uint64_t bytes_sent = 0;
    uint64_t frames_received = 0;
    uint64_t bytes_received = 0;
    uint64_t drops_truncated = 0;   // MSG_TRUNC datagrams dropped
    uint64_t send_errors = 0;
    uint64_t recv_errors = 0;
    uint64_t socket_errors = 0;     // EPOLLERR/EPOLLHUP drained
    uint64_t recv_batches = 0;      // recv batches that returned data
    uint64_t own_copies_filtered = 0;  // own multicast loopback copies
    uint64_t payload_copies = 0;  // bytes-send copies into pooled frames
    uint64_t payload_bytes_copied = 0;
    uint64_t sendmmsg_short = 0;  // short batch accepts, tail retried
    uint64_t uring_sqe_submitted = 0;   // SQEs handed to the kernel
    uint64_t uring_cqe_batch = 0;       // CQ drains that yielded CQEs
    uint64_t uring_buf_ring_refills = 0;  // provided buffers recycled
    uint64_t uring_short_submits = 0;   // short SQ accepts, tail retried
  };
  NetCounters net_counters() const;

  // Which kernel datapath this is: "epoll" or "uring".
  virtual const char* backend() const = 0;

  // Nodes reachable via send_broadcast. The HostId form targets each
  // peer at the broadcast's dst_port (single-process topologies where
  // every node binds the same port number); the Address form carries a
  // per-peer port for multi-process topologies where peers live on
  // kernel-assigned ephemeral ports (an Address port of 0 falls back to
  // the broadcast's dst_port). Entries that are this node are skipped.
  void set_peers(std::vector<HostId> peers);
  void set_peers(std::vector<Address> peers);

  // Registers a snapshot collector publishing the live counters as
  // "<prefix>.frames_sent", "<prefix>.uring_sqe_submitted", … (names
  // aligned with the sim net.* counters where the concept matches) plus
  // "<prefix>.pool_*" slab stats, and points drop/error traces at the
  // ring. Call during setup, before traffic; pass distinct prefixes when
  // several transports share one registry. Null detaches. The registry
  // must outlive this transport (or be detached first): the destructor
  // deregisters its collector.
  void set_obs(obs::Observability* obs, const std::string& prefix = "net");

  HostId local_host() const override { return local_host_; }
  size_t mtu() const override { return 65507; }
  // For requested == 0: the kernel-assigned port of the most recent
  // ephemeral bind (valid as soon as that bind returns ok).
  uint16_t bound_port(uint16_t requested) const override;

  Status bind_frames(uint16_t port, FrameRecvHandler handler) override;
  void unbind(uint16_t port) override;
  Status join_group(GroupId group, uint16_t port) override;
  void leave_group(GroupId group, uint16_t port) override;
  Status send_frame(uint16_t src_port, Address dst,
                    SharedFrame frame) override;
  Status send_frame_multicast(uint16_t src_port, GroupId group,
                              SharedFrame frame) override;
  // The whole peer fan-out shares the one frame across batched sends:
  // payload copies are independent of peer count (the kernel copy per
  // destination is inherent to UDP).
  Status send_frame_broadcast(uint16_t src_port, uint16_t dst_port,
                              SharedFrame frame) override;
  Status send_frame_to_many(uint16_t src_port, const Address* dst,
                            size_t n_dst, const SharedFrame& frame) override;

  // Closes every socket; the derived destructor has already stopped its
  // engine, so no kernel request references them anymore.
  ~LiveTransport() override;

 protected:
  // Parses `local_ip` (throws std::runtime_error naming `who` if bad).
  LiveTransport(const std::string& local_ip, LiveTransportOptions options,
                const char* who);

  struct Socket {
    ~Socket();
    int fd = -1;
    uint64_t token = 0;  // never reused; 0 is reserved for the engine
    uint16_t port = 0;
    bool is_multicast = false;
    GroupId group = 0;
    FrameRecvHandler handler;
    // unbind() was called: suppresses deliveries still in flight on the
    // dispatch thread while the last references drain.
    std::atomic<bool> closed{false};
  };
  using SocketPtr = std::shared_ptr<Socket>;

  // Datagrams per send batch (one sendmmsg / one SQE flush).
  static constexpr size_t kSendBatch = 32;

  // --- engine hooks ---------------------------------------------------------
  // Starts receiving on a socket about to enter the table. Called with
  // the table lock held; an error aborts the bind.
  virtual Status arm(const SocketPtr& s) = 0;
  // Stops receiving on a socket just removed from the table (closed is
  // already set). Called with the table lock held.
  virtual void disarm(const SocketPtr& s) = 0;
  // Sends `n` (<= kSendBatch) prepared datagrams of `payload_bytes` out
  // of `fd` under the shared retry contract (send_retry.h); returns how
  // many the kernel accepted, with the counters updated (count_sent).
  virtual size_t send_batch(int fd, mmsghdr* msgs, size_t n,
                            size_t payload_bytes) = 0;

  // The receive contract both engines share, for one datagram of `len`
  // payload bytes at `offset` in `lease`: truncated datagrams are
  // dropped with a counter and trace, receive counters are bumped, and
  // unless the socket is closed or this is our own multicast copy the
  // lease is frozen to the payload and handed to the socket's handler
  // (the lease is then consumed: !lease.valid()).
  void deliver(const Socket& s, Address from, size_t len, bool truncated,
               FrameLease& lease, size_t offset);
  // Send-side counters for one batch; returns `sent`.
  size_t count_sent(size_t sent, size_t failed, int err,
                    size_t payload_bytes);
  // The live socket for an engine token, or null once it is unbound.
  SocketPtr socket_for(uint64_t token) const;

  void detach_obs();
  // Cold path only (drops/errors): records a kNet trace if attached.
  void trace_drop(obs::TraceEvent ev, uint64_t a, uint64_t b);

  struct NetStats {
    std::atomic<uint64_t> frames_sent{0};
    std::atomic<uint64_t> bytes_sent{0};
    std::atomic<uint64_t> frames_received{0};
    std::atomic<uint64_t> bytes_received{0};
    std::atomic<uint64_t> drops_truncated{0};
    std::atomic<uint64_t> send_errors{0};
    std::atomic<uint64_t> recv_errors{0};
    std::atomic<uint64_t> socket_errors{0};
    std::atomic<uint64_t> recv_batches{0};
    std::atomic<uint64_t> own_copies_filtered{0};
    std::atomic<uint64_t> sendmmsg_short{0};
    std::atomic<uint64_t> uring_sqe_submitted{0};
    std::atomic<uint64_t> uring_cqe_batch{0};
    std::atomic<uint64_t> uring_buf_ring_refills{0};
    std::atomic<uint64_t> uring_short_submits{0};
  };

  NetStats stats_;
  const LiveTransportOptions options_;
  HostId local_host_ = 0;

 private:
  Status open_socket(uint16_t port, FrameRecvHandler handler, bool multicast,
                     GroupId group);
  void close_socket(uint64_t key);
  // The socket bound to `src_port` (a stable, reply-able source address,
  // pinned in `pin`) or the lazily opened shared send socket.
  int resolve_send_fd(uint16_t src_port, SocketPtr& pin);
  // Sends `data` to each of `dst` (port 0 = `fallback_port`) in batches.
  Status send_to(uint16_t src_port, const Address* dst, size_t n_dst,
                 uint16_t fallback_port, BytesView data);

  // The socket table, peers and shared send socket (live_transport.cpp).
  struct Table;
  std::unique_ptr<Table> table_;

  // Guards the obs wiring and serializes trace-ring writes from this
  // transport (the ring itself is not thread-safe).
  mutable std::mutex obs_mu_;
  obs::Observability* obs_ = nullptr;
  uint64_t obs_token_ = 0;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

// Constructs the backend resolve_backend() picks. Throws
// std::runtime_error when an explicitly requested backend cannot start
// (bad ip, kUring on a kernel without io_uring support).
std::unique_ptr<LiveTransport> make_live_transport(
    const std::string& local_ip, const TransportConfig& config = {});

}  // namespace marea::transport
