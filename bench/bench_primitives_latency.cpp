// Experiment C1 (paper §4.2/§6): "in our current implementation, events
// seem faster than their function equivalent."
//
// Measures one-way virtual-time latency of a variable sample and an event,
// and the round-trip (plus half-trip) of the equivalent remote invocation,
// between two nodes on the default LAN model, across payload sizes.
// Expected shape: variable <= event < rpc_one_way < rpc_round_trip.
#include "bench_util.h"

namespace marea::bench {
namespace {

// Two fresh nodes; after discovery, `fire` runs 200 times 5 ms apart.
template <typename Fire>
void drive(mw::SimDomain& domain, Fire fire) {
  domain.start_all();
  domain.run_for(seconds(1.0));
  for (int i = 0; i < 200; ++i) {
    fire();
    domain.run_for(milliseconds(5));
  }
  domain.run_for(milliseconds(100));
}

template <typename Producer, typename Consumer>
void one_way(Report& report, const std::string& point, uint64_t seed,
             size_t payload, void (Producer::*send)()) {
  mw::SimDomain domain(seed);
  auto prod = std::make_unique<Producer>(payload);
  auto* prod_ptr = prod.get();
  (void)domain.add_node("producer").add_service(std::move(prod));
  auto cons = std::make_unique<Consumer>();
  auto* cons_ptr = cons.get();
  (void)domain.add_node("consumer").add_service(std::move(cons));
  drive(domain, [&] { (prod_ptr->*send)(); });
  report[point + ".one_way_us"] = cons_ptr->latency.mean();
  report[point + ".p99_us"] = cons_ptr->latency.percentile(0.99);
  report[point + ".delivered"] = static_cast<double>(cons_ptr->received);
  domain.stop_all();
}

void rpc(Report& report, const std::string& point, size_t payload) {
  mw::SimDomain domain(3);
  (void)domain.add_node("server").add_service(std::make_unique<EchoServer>());
  auto client = std::make_unique<EchoClient>(payload);
  auto* client_ptr = client.get();
  (void)domain.add_node("client").add_service(std::move(client));
  drive(domain, [&] { client_ptr->invoke(); });
  report[point + ".round_trip_us"] = client_ptr->round_trip.mean();
  // The "function equivalent" of a one-way event is half the round trip.
  report[point + ".one_way_us"] = client_ptr->round_trip.mean() / 2.0;
  report[point + ".p99_rt_us"] = client_ptr->round_trip.percentile(0.99);
  report[point + ".completed"] = static_cast<double>(client_ptr->completed);
  domain.stop_all();
}

}  // namespace

void primitives_latency(Report& report) {
  for (size_t payload : {16, 256, 1024}) {
    const std::string size = std::to_string(payload);
    one_way<VarProducer, VarConsumer>(report, "c1.variable_" + size, 1,
                                      payload, &VarProducer::push);
    one_way<EventProducer, EventConsumer>(report, "c1.event_" + size, 2,
                                          payload, &EventProducer::fire);
    rpc(report, "c1.rpc_" + size, payload);
  }
  // The claim: signalling by event costs one one-way trip, the function
  // equivalent a full request/response.
  report["c1.claim.rpc_rt_over_event_256"] =
      report["c1.rpc_256.round_trip_us"] / report["c1.event_256.one_way_us"];
}

}  // namespace marea::bench
