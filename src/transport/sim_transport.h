// Transport implementation over the simulated network. One instance per
// simulated node; all instances share the SimNetwork and therefore the
// virtual clock, losses and bandwidth model.
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
  // The simulated medium is paced by virtual time.
  const Clock* clock() const override { return &net_.clock(); }

  // Zero-copy path: frames built in the network's shared pool travel to
  // every receiver without a single payload copy.
  FramePool& frame_pool() override { return net_.frame_pool(); }
  Status bind_frames(uint16_t port, FrameRecvHandler handler) override;
  void unbind(uint16_t port) override;
  Status join_group(GroupId group, uint16_t port) override;
  void leave_group(GroupId group, uint16_t port) override;
  Status send_frame(uint16_t src_port, Address dst,
                    SharedFrame frame) override;
  Status send_frame_multicast(uint16_t src_port, GroupId group,
                              SharedFrame frame) override;
  Status send_frame_broadcast(uint16_t src_port, uint16_t dst_port,
                              SharedFrame frame) override;

 private:
  sim::SimNetwork& net_;
  sim::NodeId node_;
};

}  // namespace marea::transport
