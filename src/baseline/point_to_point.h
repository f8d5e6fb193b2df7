// Baseline #1 of the paper's §3 taxonomy ("there are basically three
// models for information communication: Point-to-Point, Client-Server and
// Data Distribution System"): raw point-to-point. The producer must know
// every consumer and unicasts one copy each — no discovery, no decoupling,
// bandwidth linear in the fan-out. Benches C2/C10 compare this against
// the middleware's multicast pub/sub.
#pragma once

#include <functional>
#include <vector>

#include "sim/network.h"

namespace marea::baseline {

class P2pProducer {
 public:
  P2pProducer(sim::SimNetwork& net, Address self) : net_(net), self_(self) {}

  void add_consumer(Address consumer) { consumers_.push_back(consumer); }
  size_t consumer_count() const { return consumers_.size(); }

  // One unicast per consumer.
  void send(BytesView payload) {
    for (Address consumer : consumers_) {
      (void)net_.send(self_, consumer, net_.frame_pool().copy_in(payload));
    }
  }

 private:
  sim::SimNetwork& net_;
  Address self_;
  std::vector<Address> consumers_;
};

class P2pConsumer {
 public:
  using Handler = std::function<void(BytesView payload)>;

  P2pConsumer(sim::SimNetwork& net, Address self, Handler handler)
      : net_(net), self_(self) {
    Status s = net_.bind_frames(
        self_, [this, handler = std::move(handler)](
                   Address, const SharedFrame& frame) {
          ++received_;
          if (handler) handler(frame.view());
        });
    (void)s;
  }
  ~P2pConsumer() { net_.unbind(self_); }

  uint64_t received() const { return received_; }

 private:
  sim::SimNetwork& net_;
  Address self_;
  uint64_t received_ = 0;
};

}  // namespace marea::baseline
