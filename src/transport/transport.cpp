#include "transport/transport.h"

namespace marea::transport {

std::string to_string(const Address& a) {
  return std::to_string(a.host) + ":" + std::to_string(a.port);
}

Status Transport::send_frame_to_many(uint16_t src_port, const Address* dst,
                                     size_t n_dst, const SharedFrame& frame) {
  Status last = Status::ok();
  for (size_t i = 0; i < n_dst; ++i) {
    Status s = send_frame(src_port, dst[i], frame);
    if (!s.is_ok()) last = s;
  }
  return last;
}

Status Transport::bind(uint16_t port, RecvHandler handler) {
  if (!handler) return invalid_argument_error("bind: empty handler");
  return bind_frames(port, [handler = std::move(handler)](
                               Address from, const SharedFrame& frame) {
    handler(from, frame.view());
  });
}

Status Transport::send(uint16_t src_port, Address dst, BytesView data) {
  return send_frame(src_port, dst, frame_pool().copy_in(data));
}

Status Transport::send_multicast(uint16_t src_port, GroupId group,
                                 BytesView data) {
  return send_frame_multicast(src_port, group, frame_pool().copy_in(data));
}

Status Transport::send_broadcast(uint16_t src_port, uint16_t dst_port,
                                 BytesView data) {
  return send_frame_broadcast(src_port, dst_port,
                              frame_pool().copy_in(data));
}

}  // namespace marea::transport
