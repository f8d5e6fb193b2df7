// Datagram addressing shared by the simulated network (sim::SimNetwork)
// and the Transport contract: one address, group id and frame receiver
// type for both, so a handler bound through a Transport is the one the
// medium calls.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "util/frame_pool.h"

namespace marea {

using HostId = uint32_t;   // simulated NodeId, or IPv4 address for UDP
using GroupId = uint32_t;  // multicast group

struct Address {
  HostId host = 0;
  uint16_t port = 0;

  friend auto operator<=>(const Address&, const Address&) = default;
};

inline std::string to_string(const Address& a) {
  return std::to_string(a.host) + ":" + std::to_string(a.port);
}

// The handler owns one reference to the pooled bytes and may keep it past
// the call without copying.
using FrameRecvHandler = std::function<void(Address from, SharedFrame frame)>;

}  // namespace marea
