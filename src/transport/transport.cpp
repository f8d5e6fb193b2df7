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

}  // namespace marea::transport
