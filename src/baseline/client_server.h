// Baseline #2 of the paper's §3 taxonomy: client–server. All traffic
// passes through a central broker — producers publish to it, the broker
// forwards one unicast per subscriber. Every sample crosses the wire
// (1 + fan-out) times and the broker is a bottleneck and single point of
// failure; exactly the shape bench C10 quantifies against DDS-style
// multicast pub/sub.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/network.h"

namespace marea::baseline {

// Message kinds on the broker port.
enum class BrokerOp : uint8_t { kSubscribe = 1, kPublish = 2, kForward = 3 };

class BrokerServer {
 public:
  BrokerServer(sim::SimNetwork& net, Address self);
  ~BrokerServer();

  uint64_t published() const { return published_; }
  uint64_t forwarded() const { return forwarded_; }

 private:
  void on_datagram(Address from, BytesView data);

  sim::SimNetwork& net_;
  Address self_;
  std::map<std::string, std::vector<Address>> subscribers_;
  uint64_t published_ = 0;
  uint64_t forwarded_ = 0;
};

class BrokerClient {
 public:
  using Handler = std::function<void(BytesView payload)>;

  BrokerClient(sim::SimNetwork& net, Address self, Address broker);
  ~BrokerClient();

  void subscribe(const std::string& topic, Handler handler);
  void publish(const std::string& topic, BytesView payload);

  uint64_t received() const { return received_; }

 private:
  void on_datagram(Address from, BytesView data);

  sim::SimNetwork& net_;
  Address self_;
  Address broker_;
  std::map<std::string, Handler> handlers_;
  uint64_t received_ = 0;
};

}  // namespace marea::baseline
