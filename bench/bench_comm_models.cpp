// Experiment C10 (paper §3): "the DDS model has been shown as a very good
// solution for many-to-many communication frameworks."
//
// A many-to-many avionics flow — S sensor nodes each publishing a topic
// consumed by C controller nodes — implemented three ways:
//   dds     — the middleware (multicast pub/sub, discovery included);
//   p2p     — §3's point-to-point: every sensor unicasts to each consumer;
//   broker  — §3's client-server: everything relays through one broker.
// Metric: wire bytes per (sample × consumer) and broker load. Expected
// shape: dds ~1/C of p2p; broker worst (2 hops) and a bottleneck.
#include "bench_util.h"

#include "baseline/client_server.h"
#include "baseline/point_to_point.h"

namespace marea::bench {
namespace {

constexpr int kSamplesPerSensor = 100;
constexpr size_t kPayload = 96;

struct ModelResult {
  uint64_t wire_bytes = 0;
  uint64_t delivered = 0;
  uint64_t broker_forwards = 0;
};

// The middleware. S producers of distinct variables; C consumers
// subscribing to all of them.
ModelResult run_dds(int sensors, int consumers) {
  mw::SimDomain domain(20);

  class MultiVarProducer final : public mw::Service {
   public:
    explicit MultiVarProducer(int index)
        : Service("sensor" + std::to_string(index)), index_(index) {}
    Status on_start() override {
      auto h = provide_variable<Payload>(
          "topic." + std::to_string(index_),
          {.period = kDurationZero, .validity = seconds(10.0)});
      if (!h.ok()) return h.status();
      handle_ = *h;
      return Status::ok();
    }
    void push() {
      Payload p;
      p.data.assign(kPayload, 1);
      (void)handle_.publish(p);
    }

   private:
    int index_;
    mw::VariableHandle handle_;
  };

  class MultiVarConsumer final : public mw::Service {
   public:
    MultiVarConsumer(std::string name, int sensors)
        : Service(std::move(name)), sensors_(sensors) {}
    Status on_start() override {
      for (int i = 0; i < sensors_; ++i) {
        Status s = subscribe_variable<Payload>(
            "topic." + std::to_string(i),
            [this](const Payload&, const mw::SampleInfo& info) {
              if (!info.from_snapshot) ++received;
            });
        if (!s.is_ok()) return s;
      }
      return Status::ok();
    }
    uint64_t received = 0;

   private:
    int sensors_;
  };

  std::vector<MultiVarProducer*> producers;
  for (int i = 0; i < sensors; ++i) {
    auto& n = domain.add_node("sensor" + std::to_string(i));
    auto p = std::make_unique<MultiVarProducer>(i);
    producers.push_back(p.get());
    (void)n.add_service(std::move(p));
  }
  std::vector<MultiVarConsumer*> consumer_ptrs;
  for (int i = 0; i < consumers; ++i) {
    auto& n = domain.add_node("ctrl" + std::to_string(i));
    auto c = std::make_unique<MultiVarConsumer>("ctrl" + std::to_string(i),
                                                sensors);
    consumer_ptrs.push_back(c.get());
    (void)n.add_service(std::move(c));
  }
  domain.start_all();
  domain.run_for(seconds(2.0));
  domain.network().reset_stats();
  TimePoint window_start = domain.sim().now();
  for (int k = 0; k < kSamplesPerSensor; ++k) {
    for (auto* p : producers) p->push();
    domain.run_for(milliseconds(5));
  }
  domain.run_for(milliseconds(200));
  Duration window = domain.sim().now() - window_start;

  ModelResult result;
  result.wire_bytes = domain.network().stats().bytes_sent;
  for (auto* c : consumer_ptrs) result.delivered += c->received;

  // Subtract idle-period control chatter measured over the same window.
  domain.network().reset_stats();
  domain.run_for(window);
  uint64_t idle = domain.network().stats().bytes_sent;
  result.wire_bytes = result.wire_bytes > idle ? result.wire_bytes - idle : 0;
  domain.stop_all();
  return result;
}

ModelResult run_p2p(int sensors, int consumers) {
  sim::Simulator sim;
  sim::SimNetwork net(sim, Rng(2));
  ModelResult result;

  std::vector<sim::NodeId> sensor_nodes, consumer_nodes;
  for (int i = 0; i < sensors; ++i) {
    sensor_nodes.push_back(net.add_node("s" + std::to_string(i)));
  }
  std::vector<std::unique_ptr<baseline::P2pConsumer>> sinks;
  for (int i = 0; i < consumers; ++i) {
    sim::NodeId node = net.add_node("c" + std::to_string(i));
    consumer_nodes.push_back(node);
    sinks.push_back(std::make_unique<baseline::P2pConsumer>(
        net, Address{node, 1},
        [&](BytesView) { result.delivered++; }));
  }
  std::vector<baseline::P2pProducer> producers;
  producers.reserve(static_cast<size_t>(sensors));
  for (int i = 0; i < sensors; ++i) {
    producers.emplace_back(net, Address{sensor_nodes[static_cast<size_t>(i)], 1});
    for (sim::NodeId c : consumer_nodes) {
      producers.back().add_consumer(Address{c, 1});
    }
  }
  Buffer payload(kPayload, 1);
  for (int k = 0; k < kSamplesPerSensor; ++k) {
    for (auto& p : producers) p.send(as_bytes_view(payload));
    sim.run_for(milliseconds(5));
  }
  sim.run(10'000'000);
  result.wire_bytes = net.stats().bytes_sent;
  return result;
}

ModelResult run_broker(int sensors, int consumers) {
  sim::Simulator sim;
  sim::SimNetwork net(sim, Rng(2));
  ModelResult result;

  sim::NodeId broker_node = net.add_node("broker");
  baseline::BrokerServer broker(net, Address{broker_node, 1});

  std::vector<std::unique_ptr<baseline::BrokerClient>> clients;
  for (int i = 0; i < consumers; ++i) {
    sim::NodeId node = net.add_node("c" + std::to_string(i));
    clients.push_back(std::make_unique<baseline::BrokerClient>(
        net, Address{node, 1}, Address{broker_node, 1}));
    for (int s = 0; s < sensors; ++s) {
      clients.back()->subscribe("topic." + std::to_string(s),
                                [&](BytesView) { result.delivered++; });
    }
  }
  std::vector<std::unique_ptr<baseline::BrokerClient>> sensors_clients;
  for (int i = 0; i < sensors; ++i) {
    sim::NodeId node = net.add_node("s" + std::to_string(i));
    sensors_clients.push_back(std::make_unique<baseline::BrokerClient>(
        net, Address{node, 1}, Address{broker_node, 1}));
  }
  sim.run(1'000'000);  // subscriptions settle

  Buffer payload(kPayload, 1);
  for (int k = 0; k < kSamplesPerSensor; ++k) {
    for (int s = 0; s < sensors; ++s) {
      sensors_clients[static_cast<size_t>(s)]->publish(
          "topic." + std::to_string(s), as_bytes_view(payload));
    }
    sim.run_for(milliseconds(5));
  }
  sim.run(10'000'000);
  result.wire_bytes = net.stats().bytes_sent;
  result.broker_forwards = broker.forwarded();
  return result;
}

void put(Report& report, const std::string& point, const ModelResult& result,
         int sensors, int consumers) {
  double expected =
      static_cast<double>(sensors) * kSamplesPerSensor * consumers;
  report[point + ".wire_KB"] = static_cast<double>(result.wire_bytes) / 1024.0;
  report[point + ".delivered_pct"] =
      100.0 * static_cast<double>(result.delivered) / expected;
  report[point + ".bytes_per_delivery"] =
      result.delivered ? static_cast<double>(result.wire_bytes) /
                             static_cast<double>(result.delivered)
                       : 0.0;
  if (result.broker_forwards) {
    report[point + ".broker_forwards"] =
        static_cast<double>(result.broker_forwards);
  }
}

}  // namespace

void comm_models(Report& report) {
  for (int sensors : {2, 4}) {
    for (int consumers : {2, 4, 8}) {
      const std::string sc =
          "_s" + std::to_string(sensors) + "_c" + std::to_string(consumers);
      put(report, "c10.dds" + sc, run_dds(sensors, consumers), sensors,
          consumers);
      put(report, "c10.p2p" + sc, run_p2p(sensors, consumers), sensors,
          consumers);
      put(report, "c10.broker" + sc, run_broker(sensors, consumers), sensors,
          consumers);
    }
  }
  // The claim: under multicast pub/sub the per-delivery cost falls with
  // fan-out, while p2p stays flat and the broker pays two hops.
  report["c10.claim.p2p_over_dds_s4_c8"] =
      report["c10.p2p_s4_c8.bytes_per_delivery"] /
      report["c10.dds_s4_c8.bytes_per_delivery"];
  report["c10.claim.broker_over_p2p_s4_c8"] =
      report["c10.broker_s4_c8.bytes_per_delivery"] /
      report["c10.p2p_s4_c8.bytes_per_delivery"];
}

}  // namespace marea::bench
