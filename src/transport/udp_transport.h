// The epoll engine of the live kernel datapath (DESIGN.md "Live
// transport"): the socket table, send path and receive contract live in
// LiveTransport; this backend only runs the I/O.
//
//   * One epoll loop serves every socket and runs the receive handlers.
//     Events carry the socket's token, never the raw fd, so a stale event
//     for a closed socket resolves to nothing.
//   * Receives land in pooled FrameLease slabs, batched with recvmmsg
//     (single recvmsg fallback), and are handed on refcounted.
//   * A send batch is one sendmmsg under the shared retry contract
//     (send_retry.h).
#pragma once

#include <atomic>
#include <thread>

#include "transport/live_transport.h"

namespace marea::transport {

class UdpTransport final : public LiveTransport {
 public:
  // `local_ip` e.g. "127.0.0.1". Throws std::runtime_error if the dispatch
  // machinery cannot start.
  explicit UdpTransport(const std::string& local_ip,
                        LiveTransportOptions options = {});
  ~UdpTransport() override;

  const char* backend() const override { return "epoll"; }

 private:
  Status arm(const SocketPtr& s) override;
  void disarm(const SocketPtr& s) override;
  size_t send_batch(int fd, mmsghdr* msgs, size_t n,
                    size_t payload_bytes) override;

  struct RecvScratch;  // reusable recvmmsg buffers, defined in the .cpp
  void poll_loop();
  void drain_socket(const Socket& s, RecvScratch& scratch);

  int epoll_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> running_{false};
  std::thread poller_;
};

}  // namespace marea::transport
