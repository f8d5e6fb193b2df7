#include "transport/socket_setup.h"

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

namespace marea::transport::detail {

sockaddr_in make_addr(HostId host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(host);
  return addr;
}

int open_live_socket(HostId local_host, uint16_t* port, bool multicast,
                     GroupId group, std::string* err) {
  int fd = socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    *err = "socket() failed";
    return -1;
  }
  const auto make_shareable = [fd] {
    int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one);
  };
  // An ephemeral bind becomes shareable only after the kernel picked its
  // port: with the reuse options set before the bind, the kernel may hand
  // out a port another reuse socket (ours, or another process's) already
  // holds, and the two would silently split its traffic.
  const bool ephemeral = !multicast && *port == 0;
  if (!ephemeral) make_shareable();
  sockaddr_in addr = multicast ? make_addr(INADDR_ANY, *port)
                               : make_addr(local_host, *port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    *err = "bind() failed for port " + std::to_string(*port);
    return -1;
  }
  if (ephemeral) {
    make_shareable();
    // Learn the kernel-assigned port so the caller can advertise it
    // through discovery (bound_port()) and so the socket tables key it
    // like any explicit bind.
    sockaddr_in bound{};
    socklen_t blen = sizeof bound;
    if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) != 0) {
      ::close(fd);
      *err = "getsockname() failed for ephemeral bind";
      return -1;
    }
    *port = ntohs(bound.sin_port);
  }
  if (multicast) {
    ip_mreq mreq{};
    mreq.imr_multiaddr.s_addr = htonl(group_host(group));
    mreq.imr_interface.s_addr = htonl(local_host);
    if (setsockopt(fd, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq,
                   sizeof mreq) != 0) {
      ::close(fd);
      *err = "IP_ADD_MEMBERSHIP failed";
      return -1;
    }
  } else {
    // Unicast sockets double as multicast senders (send_multicast prefers
    // the src_port-bound socket): configure their egress interface.
    int loop = 1;
    setsockopt(fd, IPPROTO_IP, IP_MULTICAST_LOOP, &loop, sizeof loop);
    in_addr ifaddr{};
    ifaddr.s_addr = htonl(local_host);
    setsockopt(fd, IPPROTO_IP, IP_MULTICAST_IF, &ifaddr, sizeof ifaddr);
  }
  return fd;
}

}  // namespace marea::transport::detail
