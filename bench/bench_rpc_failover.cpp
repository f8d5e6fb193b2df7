// Experiment C7 (paper §4.3): "upon service failure … the middleware will
// detect the situation and redirect requests to the redundant service";
// load balancing spreads calls across redundant providers.
//
// Measures: (a) the virtual-time service outage seen by a steady caller
// when the bound provider dies (kill -> first successful redirected call),
// (b) calls lost in the window, (c) the load-balance spread across N
// redundant providers. Expected shape: outage ~= heartbeat liveness
// window; zero/near-zero failed calls; spread near-uniform.
#include "bench_util.h"

namespace marea::bench {
namespace {

class CountingEcho final : public mw::Service {
 public:
  explicit CountingEcho(std::string name) : Service(std::move(name)) {}
  Status on_start() override {
    return provide_function(
        "bench.echo", enc::bytes_type(), enc::bytes_type(),
        [this](const enc::Value& v) -> StatusOr<enc::Value> {
          ++served;
          return v;
        });
  }
  uint64_t served = 0;
};

class SteadyCaller final : public mw::Service {
 public:
  SteadyCaller() : Service("caller") {}
  Status on_start() override {
    tick();
    return Status::ok();
  }
  void tick() {
    TimePoint sent = now();
    call("bench.echo", enc::Value::of_bytes(Buffer(32, 1)),
         [this, sent](StatusOr<enc::Value> result) {
           if (result.ok()) {
             ++ok_count;
             last_ok = now();
             if (waiting_recovery) {
               waiting_recovery = false;
               recovery_at = now();
             }
           } else {
             ++failed;
           }
           (void)sent;
         },
         {.timeout = milliseconds(800)});
    schedule(milliseconds(20), [this] { tick(); },
             sched::Priority::kRpc);
  }
  uint64_t ok_count = 0;
  uint64_t failed = 0;
  TimePoint last_ok{};
  bool waiting_recovery = false;
  TimePoint recovery_at{};
};

void failover(Report& report) {
  mw::SimDomain domain(15);
  auto& n1 = domain.add_node("primary");
  (void)n1.add_service(std::make_unique<CountingEcho>("echo_a"));
  auto& n2 = domain.add_node("backup");
  (void)n2.add_service(std::make_unique<CountingEcho>("echo_b"));
  auto& n3 = domain.add_node("client");
  auto caller = std::make_unique<SteadyCaller>();
  auto* caller_ptr = caller.get();
  (void)n3.add_service(std::move(caller));
  domain.start_all();
  domain.run_for(seconds(2.0));

  uint64_t failed_before = caller_ptr->failed;
  caller_ptr->waiting_recovery = true;
  TimePoint kill_time = domain.sim().now();
  domain.kill_node(0);
  domain.run_for(seconds(5.0));

  report["c7.failover.outage_ms"] =
      (caller_ptr->recovery_at - kill_time).millis();
  report["c7.failover.calls_failed"] =
      static_cast<double>(caller_ptr->failed - failed_before);
  report["c7.failover.calls_ok"] = static_cast<double>(caller_ptr->ok_count);
  report["c7.failover.failovers"] =
      static_cast<double>(domain.container(2).stats().rpc_failovers);
  domain.stop_all();
}

void load_balance(Report& report, int providers) {
  mw::SimDomain domain(16);
  std::vector<CountingEcho*> echoes;
  for (int i = 0; i < providers; ++i) {
    auto& n = domain.add_node("server" + std::to_string(i));
    auto e = std::make_unique<CountingEcho>("echo" + std::to_string(i));
    echoes.push_back(e.get());
    (void)n.add_service(std::move(e));
  }
  auto& nc = domain.add_node("client");
  (void)nc.add_service(std::make_unique<SteadyCaller>());
  domain.start_all();
  domain.run_for(seconds(10.0));

  uint64_t total = 0;
  uint64_t min_served = UINT64_MAX;
  uint64_t max_served = 0;
  for (auto* e : echoes) {
    total += e->served;
    min_served = std::min(min_served, e->served);
    max_served = std::max(max_served, e->served);
  }
  const std::string point = "c7.providers_" + std::to_string(providers);
  report[point + ".calls_total"] = static_cast<double>(total);
  // 1.0 = perfectly even round robin.
  report[point + ".balance_min_over_max"] =
      max_served ? static_cast<double>(min_served) /
                       static_cast<double>(max_served)
                 : 0.0;
  domain.stop_all();
}

}  // namespace

void rpc_failover(Report& report) {
  failover(report);
  for (int providers : {2, 3, 5}) load_balance(report, providers);
}

}  // namespace marea::bench
