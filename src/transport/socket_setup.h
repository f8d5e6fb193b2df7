// Internal: one place that knows how a live UDP socket is opened and
// configured, shared by both kernel backends so the IPv4 mapping
// (multicast group addressing, REUSEADDR/REUSEPORT, egress interface,
// ephemeral-port discovery) cannot drift between them.
#pragma once

#include <netinet/in.h>

#include <string>

#include "transport/transport.h"

namespace marea::transport::detail {

sockaddr_in make_addr(HostId host, uint16_t port);

// 239.77.x.y — organization-local scope (host byte order, like HostId).
inline HostId group_host(GroupId group) {
  return 0xEF4D0000u | (group & 0xFFFFu);
}

// Opens and configures one UDP socket per the live-transport
// conventions: REUSEADDR/REUSEPORT (set after the bind for ephemeral
// binds, so the kernel picks a port no socket holds), multicast
// membership (multicast
// sockets bind INADDR_ANY on the canonical group port), egress
// interface + loopback for unicast sockets that double as multicast
// senders. The fd stays blocking — receive paths use MSG_DONTWAIT (or
// io_uring) and sends should briefly block on a full buffer rather than
// sporadically drop. On success returns the fd and rewrites *port with
// the kernel-assigned number for ephemeral (port 0) binds; on failure
// returns -1 with a message in *err.
int open_live_socket(HostId local_host, uint16_t* port, bool multicast,
                     GroupId group, std::string* err);

}  // namespace marea::transport::detail
