#include "baseline/client_server.h"

namespace marea::baseline {

namespace {

Buffer make_msg(BrokerOp op, const std::string& topic, BytesView payload) {
  ByteWriter w(topic.size() + payload.size() + 8);
  w.u8(static_cast<uint8_t>(op));
  w.str(topic);
  w.blob(payload);
  return w.take();
}

}  // namespace

BrokerServer::BrokerServer(sim::SimNetwork& net, sim::Endpoint self)
    : net_(net), self_(self) {
  Status s = net_.bind_frames(
      self_, [this](sim::Endpoint from, const SharedFrame& frame) {
        on_datagram(from, frame.view());
      });
  (void)s;
}

BrokerServer::~BrokerServer() { net_.unbind(self_); }

void BrokerServer::on_datagram(sim::Endpoint from, BytesView data) {
  ByteReader r(data);
  uint8_t op = r.u8();
  std::string topic = r.str();
  BytesView payload = r.blob();
  if (!r.ok()) return;

  if (op == static_cast<uint8_t>(BrokerOp::kSubscribe)) {
    auto& subs = subscribers_[topic];
    for (const auto& existing : subs) {
      if (existing == from) return;
    }
    subs.push_back(from);
    return;
  }
  if (op == static_cast<uint8_t>(BrokerOp::kPublish)) {
    ++published_;
    auto it = subscribers_.find(topic);
    if (it == subscribers_.end()) return;
    Buffer fwd = make_msg(BrokerOp::kForward, topic, payload);
    for (sim::Endpoint sub : it->second) {
      if (sub == from) continue;
      ++forwarded_;
      (void)net_.send(self_, sub, net_.frame_pool().copy_in(fwd));
    }
  }
}

BrokerClient::BrokerClient(sim::SimNetwork& net, sim::Endpoint self,
                           sim::Endpoint broker)
    : net_(net), self_(self), broker_(broker) {
  Status s = net_.bind_frames(
      self_, [this](sim::Endpoint from, const SharedFrame& frame) {
        on_datagram(from, frame.view());
      });
  (void)s;
}

BrokerClient::~BrokerClient() { net_.unbind(self_); }

void BrokerClient::subscribe(const std::string& topic, Handler handler) {
  handlers_[topic] = std::move(handler);
  Buffer msg = make_msg(BrokerOp::kSubscribe, topic, {});
  (void)net_.send(self_, broker_, net_.frame_pool().copy_in(msg));
}

void BrokerClient::publish(const std::string& topic, BytesView payload) {
  Buffer msg = make_msg(BrokerOp::kPublish, topic, payload);
  (void)net_.send(self_, broker_, net_.frame_pool().copy_in(msg));
}

void BrokerClient::on_datagram(sim::Endpoint, BytesView data) {
  ByteReader r(data);
  uint8_t op = r.u8();
  std::string topic = r.str();
  BytesView payload = r.blob();
  if (!r.ok() || op != static_cast<uint8_t>(BrokerOp::kForward)) return;
  ++received_;
  auto it = handlers_.find(topic);
  if (it != handlers_.end() && it->second) it->second(payload);
}

}  // namespace marea::baseline
