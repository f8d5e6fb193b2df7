// Experiment C2 (paper §4.1): multicast variables "allow optimizing the
// bandwidth use because one packet sent can arrive to multiple nodes".
//
// Sweeps subscriber count and compares wire bytes per published sample:
//   * middleware with multicast (one packet regardless of fan-out)
//   * middleware forced to unicast (linear in fan-out)
// Expected shape: multicast flat, unicast linear; crossover at 1.
#include "bench_util.h"

namespace marea::bench {
namespace {

constexpr int kSamples = 200;
constexpr size_t kPayload = 128;

double bytes_per_sample(bool multicast, int subscribers) {
  mw::SimDomain domain(10);
  mw::ContainerConfig cfg;
  cfg.use_multicast = multicast;
  auto& n1 = domain.add_node("producer", cfg);
  auto prod = std::make_unique<VarProducer>(kPayload);
  auto* prod_ptr = prod.get();
  (void)n1.add_service(std::move(prod));
  std::vector<VarConsumer*> consumers;
  for (int i = 0; i < subscribers; ++i) {
    auto& n = domain.add_node("c" + std::to_string(i), cfg);
    auto c = std::make_unique<VarConsumer>("consumer" + std::to_string(i));
    consumers.push_back(c.get());
    (void)n.add_service(std::move(c));
  }
  domain.start_all();
  domain.run_for(seconds(1.5));
  domain.network().reset_stats();
  for (int i = 0; i < kSamples; ++i) {
    prod_ptr->push();
    domain.run_for(milliseconds(2));
  }
  domain.run_for(milliseconds(200));
  // Background chatter (heartbeats, hellos) runs during the window too;
  // subtract it with a paired idle measurement of the same duration.
  uint64_t total = domain.network().stats().bytes_sent;
  domain.network().reset_stats();
  domain.run_for(milliseconds(2 * kSamples + 200));
  uint64_t idle = domain.network().stats().bytes_sent;
  domain.stop_all();
  uint64_t data_bytes = total > idle ? total - idle : 0;
  return static_cast<double>(data_bytes) / kSamples;
}

}  // namespace

void variable_fanout(Report& report) {
  for (int subscribers : {1, 2, 4, 8, 16}) {
    const std::string n = std::to_string(subscribers);
    report["c2.multicast_" + n + ".wire_bytes_per_sample"] =
        bytes_per_sample(true, subscribers);
    report["c2.unicast_" + n + ".wire_bytes_per_sample"] =
        bytes_per_sample(false, subscribers);
  }
  // The claim: one multicast packet reaches every subscriber, so unicast
  // costs grow with fan-out and multicast's do not.
  report["c2.claim.unicast_over_multicast_16"] =
      report["c2.unicast_16.wire_bytes_per_sample"] /
      report["c2.multicast_16.wire_bytes_per_sample"];
}

}  // namespace marea::bench
