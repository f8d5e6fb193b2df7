// Transport implementation over the simulated network. One instance per
// simulated node; all instances share the SimNetwork and therefore the
// virtual clock, losses and bandwidth model. The network speaks the
// Transport contract's own Address and FrameRecvHandler, so every call
// here only adds this node's id: a bound handler is the one the network
// delivers to, with no adapter between them.
#pragma once

#include "sim/network.h"
#include "transport/transport.h"

namespace marea::transport {

class SimTransport final : public Transport {
 public:
  SimTransport(sim::SimNetwork& net, sim::NodeId node)
      : net_(net), node_(node) {}

  HostId local_host() const override { return node_; }
  size_t mtu() const override { return net_.mtu(); }

  // Zero-copy path: frames built in the network's shared pool travel to
  // every receiver without a single payload copy.
  FramePool& frame_pool() override { return net_.frame_pool(); }
  Status bind_frames(uint16_t port, FrameRecvHandler handler) override {
    return net_.bind_frames(Address{node_, port}, std::move(handler));
  }
  void unbind(uint16_t port) override { net_.unbind(Address{node_, port}); }
  Status join_group(GroupId group, uint16_t port) override {
    return net_.join_group(group, Address{node_, port});
  }
  void leave_group(GroupId group, uint16_t port) override {
    net_.leave_group(group, Address{node_, port});
  }
  Status send_frame(uint16_t src_port, Address dst,
                    SharedFrame frame) override {
    return net_.send(Address{node_, src_port}, dst, std::move(frame));
  }
  Status send_frame_multicast(uint16_t src_port, GroupId group,
                              SharedFrame frame) override {
    return net_.send_multicast(Address{node_, src_port}, group,
                               std::move(frame));
  }
  Status send_frame_broadcast(uint16_t src_port, uint16_t dst_port,
                              SharedFrame frame) override {
    return net_.send_broadcast(Address{node_, src_port}, dst_port,
                               std::move(frame));
  }
  Duration send_backlog() const override {
    return net_.egress_backlog(node_);
  }

 private:
  sim::SimNetwork& net_;
  sim::NodeId node_;
};

}  // namespace marea::transport
