#include "transport/sim_transport.h"

namespace marea::transport {

void SimTransport::unbind(uint16_t port) {
  net_.unbind(sim::Endpoint{node_, port});
}

Status SimTransport::join_group(GroupId group, uint16_t port) {
  return net_.join_group(group, sim::Endpoint{node_, port});
}

void SimTransport::leave_group(GroupId group, uint16_t port) {
  net_.leave_group(group, sim::Endpoint{node_, port});
}

Status SimTransport::bind_frames(uint16_t port, FrameRecvHandler handler) {
  return net_.bind_frames(
      sim::Endpoint{node_, port},
      [handler = std::move(handler)](sim::Endpoint from,
                                     const SharedFrame& frame) {
        handler(Address{from.node, from.port}, frame);
      });
}

Status SimTransport::send_frame(uint16_t src_port, Address dst,
                                SharedFrame frame) {
  return net_.send(sim::Endpoint{node_, src_port},
                   sim::Endpoint{dst.host, dst.port}, std::move(frame));
}

Status SimTransport::send_frame_multicast(uint16_t src_port, GroupId group,
                                          SharedFrame frame) {
  return net_.send_multicast(sim::Endpoint{node_, src_port}, group,
                             std::move(frame));
}

Status SimTransport::send_frame_broadcast(uint16_t src_port,
                                          uint16_t dst_port,
                                          SharedFrame frame) {
  return net_.send_broadcast(sim::Endpoint{node_, src_port}, dst_port,
                             std::move(frame));
}

}  // namespace marea::transport
