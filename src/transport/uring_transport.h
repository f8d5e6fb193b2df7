// The io_uring engine of the live kernel datapath (DESIGN.md "Live
// transport"): the socket table, send path and receive contract live in
// LiveTransport; this backend replaces the syscall-per-event cost
// structure with ring buffers shared with the kernel.
//
//   * RECEIVE — one multishot IORING_OP_RECVMSG per socket, armed once:
//     the kernel delivers every datagram as a CQE, writing it directly
//     into a provided-buffer ring whose entries are pooled FramePool
//     slabs. No per-receive syscall, no per-receive arm, no copy: the
//     slab the kernel filled is frozen at its payload window (the kernel
//     prepends an io_uring_recvmsg_out header + source address) and
//     handed on refcounted (net.uring_buf_ring_refills).
//   * SEND — a send batch is one IORING_OP_SENDMSG SQE per datagram,
//     flushed with a single io_uring_enter that also waits for the
//     completions, under the shared retry contract (send_retry.h): short
//     SQ accepts and transient per-datagram pushback resubmit the tail
//     (net.uring_short_submits), hard errors drop it loudly.
//   * One dispatch thread owns the receive ring. bind/unbind/join/leave
//     hand arms and cancels over an eventfd-woken queue; an arm or cancel
//     that finds the SQ full stays queued for the next pass. An unbound
//     socket drains through IORING_OP_ASYNC_CANCEL and its fd closes
//     once the multishot's terminal CQE releases the last reference.
//
// Construction throws when uring_supported() is false — callers pick
// the backend through make_live_transport (live_transport.h), which
// probes first.
#pragma once

#include <memory>

#include "transport/live_transport.h"

namespace marea::transport {

class UringTransport final : public LiveTransport {
 public:
  // `local_ip` e.g. "127.0.0.1". Throws std::runtime_error when the
  // rings cannot be set up (unsupported kernel, exhausted limits).
  explicit UringTransport(const std::string& local_ip,
                          LiveTransportOptions options = {});
  ~UringTransport() override;

  const char* backend() const override { return "uring"; }

 private:
  // The rings, the provided-buffer ring and the dispatch thread live
  // behind this so the raw io_uring plumbing stays out of the header.
  struct Core;

  Status arm(const SocketPtr& s) override;
  void disarm(const SocketPtr& s) override;
  size_t send_batch(int fd, mmsghdr* msgs, size_t n,
                    size_t payload_bytes) override;
  void dispatch_loop();

  std::unique_ptr<Core> core_;
};

}  // namespace marea::transport
