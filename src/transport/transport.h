// PEPt *Transport* subsystem: moves frames between nodes (paper §6).
//
// A Transport is an unreliable datagram endpoint factory for one node:
// the middleware's protocol layer builds everything else (reliability,
// ordering, bulk transfer) on top. Implementations:
//   * SimTransport — deterministic simulated network (tests/benches)
//   * UdpTransport — kernel UDP sockets driven by an epoll loop
//   * UringTransport — kernel UDP sockets driven by io_uring
// The two kernel backends share one socket table and send path through
// LiveTransport (live_transport.h).
//
// The contract is frames only: the eight virtual datagram calls below are
// the whole API, and each takes or delivers a pooled, refcounted
// SharedFrame. A sender that starts from bytes copies them in once
// itself (frame_pool().copy_in, counted in the pool's stats); a receiver
// that wants bytes views the delivered frame. Address, GroupId and
// FrameRecvHandler come from util/address.h and are the simulated
// network's own types, so SimTransport passes a bound handler to the
// SimNetwork unchanged and a sim delivery calls it directly.
//
// The TCP-model stream (tcp_model.h) is a separate baseline used by the
// event-reliability experiment, not part of this interface.
#pragma once

#include <cstdint>

#include "util/address.h"
#include "util/bytes.h"
#include "util/frame_pool.h"
#include "util/status.h"
#include "util/time.h"

namespace marea::transport {

using ::marea::Address;
using ::marea::FrameRecvHandler;
using ::marea::GroupId;
using ::marea::HostId;
using ::marea::to_string;

class Transport {
 public:
  virtual ~Transport() = default;

  virtual HostId local_host() const = 0;
  virtual size_t mtu() const = 0;

  // The clock that paces this transport's medium: virtual time for the
  // simulated network, wall (steady) time for kernel sockets. Protocol
  // timers that guard against *network-side* behavior (debounces, rate
  // limits) must key off this clock, not the executor's — in a live
  // deployment the executor may be driven by a different source than the
  // medium the timer is protecting. Null means "no opinion" (caller falls
  // back to its executor clock).
  virtual const Clock* clock() const { return nullptr; }

  // The concrete local port for a `bind_frames` of `requested`.
  // Implementations supporting ephemeral binds (requested == 0) return
  // the kernel-assigned port of the most recent such bind; everywhere
  // else this is the identity.
  virtual uint16_t bound_port(uint16_t requested) const { return requested; }

  // Pool for building outgoing frames. SimTransport shares the network's
  // pool so frames flow sender -> receivers in one slab; the default is a
  // per-transport pool (e.g. UDP, where the kernel copy is inherent).
  virtual FramePool& frame_pool() { return pool_; }

  // --- the contract ---------------------------------------------------------
  // Binds `port` on this node; `handler` runs on the transport's dispatch
  // context (the simulator loop, or the live receive thread).
  virtual Status bind_frames(uint16_t port, FrameRecvHandler handler) = 0;
  virtual void unbind(uint16_t port) = 0;
  // Group deliveries go to the handler already bound on `port`.
  virtual Status join_group(GroupId group, uint16_t port) = 0;
  virtual void leave_group(GroupId group, uint16_t port) = 0;

  virtual Status send_frame(uint16_t src_port, Address dst,
                            SharedFrame frame) = 0;
  virtual Status send_frame_multicast(uint16_t src_port, GroupId group,
                                      SharedFrame frame) = 0;
  // Delivered to dst_port on every other reachable node.
  virtual Status send_frame_broadcast(uint16_t src_port, uint16_t dst_port,
                                      SharedFrame frame) = 0;
  // One frame to an explicit destination list (the gateway fan-out
  // primitive): implementations batch the syscalls where the kernel
  // allows; the default is a per-destination send. The frame's payload is
  // shared across every destination — success means every datagram was
  // accepted by the medium.
  virtual Status send_frame_to_many(uint16_t src_port, const Address* dst,
                                    size_t n_dst, const SharedFrame& frame);

 protected:
  FramePool pool_;
};

}  // namespace marea::transport
