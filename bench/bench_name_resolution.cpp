// Experiment C8 (paper §3): "the Service Container acts as a proxy cache
// for the services it contains" — name management.
//
// Three regimes:
//   warm   — the name is in the directory cache (hello already absorbed):
//            resolution is a local lookup (wall nanoseconds, measured by
//            bench_wire_codec);
//   cold   — the name is unknown: the late container's start-up hello
//            draws the provider's introduction hello, whose manifest
//            binds the subscription (virtual-time milliseconds);
//   invalidated — the provider died; resolution falls to the next
//            redundant provider, and heartbeat silence then drops the
//            dead provider's records from the cache.
#include "bench_util.h"

namespace marea::bench {
namespace {

// Cold path: time from subscribe to first delivery when the provider's
// manifest is not yet cached (forces hello exchange + bind), and the
// manifests that exchange cost.
void cold_resolution(Report& report) {
  mw::SimDomain domain(17);
  auto& n1 = domain.add_node("producer");
  auto prod = std::make_unique<VarProducer>(32);
  auto* prod_ptr = prod.get();
  (void)n1.add_service(std::move(prod));
  domain.start_all();
  domain.run_for(seconds(1.0));
  prod_ptr->push();
  domain.run_for(milliseconds(100));

  // Late subscriber: its directory starts empty (cold).
  auto& n2 = domain.add_node("late");
  auto cons = std::make_unique<VarConsumer>();
  auto* cons_ptr = cons.get();
  (void)n2.add_service(std::move(cons));
  TimePoint t0 = domain.sim().now();
  const uint64_t hellos_before = n1.stats().hellos_sent;
  (void)n2.start();
  // Run until first delivery.
  while (cons_ptr->received == 0 && domain.sim().now() - t0 < seconds(5.0)) {
    domain.run_for(milliseconds(5));
  }
  report["c8.cold.bind_ms"] = (domain.sim().now() - t0).millis();
  report["c8.cold.hellos_sent"] = static_cast<double>(
      n1.stats().hellos_sent - hellos_before + n2.stats().hellos_sent);
  domain.stop_all();
}

// Invalidation path: provider dies; how long until reads bind to the
// redundant provider.
void invalidation_rebind(Report& report) {
  mw::SimDomain domain(18);
  auto& n1 = domain.add_node("primary");
  (void)n1.add_service(std::make_unique<EchoServer>());
  auto& n2 = domain.add_node("backup");
  (void)n2.add_service(std::make_unique<EchoServer>());
  auto& n3 = domain.add_node("client");
  auto client = std::make_unique<EchoClient>(32);
  auto* client_ptr = client.get();
  (void)n3.add_service(std::move(client));
  domain.start_all();
  domain.run_for(seconds(1.0));

  domain.kill_node(0);
  TimePoint kill_time = domain.sim().now();
  // Poll with calls until one succeeds again.
  uint64_t target = client_ptr->completed + 1;
  while (client_ptr->completed < target &&
         domain.sim().now() - kill_time < seconds(10.0)) {
    client_ptr->invoke();
    domain.run_for(milliseconds(20));
  }
  report["c8.invalidation.rebind_ms"] =
      (domain.sim().now() - kill_time).millis();
  // The call fails over long before heartbeat silence declares the
  // primary dead; run past the liveness bound so the count includes the
  // records that drop.
  const mw::ContainerConfig& cfg = domain.container(2).config();
  const Duration liveness = cfg.heartbeat_interval * cfg.liveness_factor;
  const TimePoint dropped_by = kill_time + liveness + cfg.heartbeat_interval;
  domain.run_for(dropped_by - domain.sim().now());
  report["c8.invalidation.invalidations"] = static_cast<double>(
      domain.container(2).directory().stats().invalidations);
  domain.stop_all();
}

}  // namespace

void name_resolution(Report& report) {
  cold_resolution(report);
  invalidation_rebind(report);
}

}  // namespace marea::bench
