// Remote invocation end-to-end: request/response, app errors, timeouts,
// dynamic load balancing across redundant providers, failover on provider
// death, static binding semantics, required-function emergencies, local
// bypass.
#include <gtest/gtest.h>

#include <memory>

#include "encoding/typed.h"
#include "middleware/domain.h"

namespace marea::mw {
namespace {

struct AddReq {
  int32_t a = 0;
  int32_t b = 0;
};
struct AddResp {
  int32_t sum = 0;
  std::string served_by;
};

}  // namespace
}  // namespace marea::mw

MAREA_REFLECT(marea::mw::AddReq, a, b)
MAREA_REFLECT(marea::mw::AddResp, sum, served_by)

namespace marea::mw {
namespace {

class Calculator final : public Service {
 public:
  explicit Calculator(std::string tag) : Service("calc_" + tag), tag_(tag) {}
  Status on_start() override {
    return provide_function<AddReq, AddResp>(
        "math.add", [this](const AddReq& req) -> StatusOr<AddResp> {
          ++served;
          if (req.a == -1) return invalid_argument_error("a must be >= 0");
          AddResp resp;
          resp.sum = req.a + req.b;
          resp.served_by = tag_;
          return resp;
        });
  }
  int served = 0;

 private:
  std::string tag_;
};

class CallerService final : public Service {
 public:
  CallerService() : Service("caller") {}
  Status on_start() override { return Status::ok(); }

  void add(int a, int b, CallOptions options = {}) {
    AddReq req;
    req.a = a;
    req.b = b;
    ++issued;
    call<AddReq, AddResp>("math.add", req,
                          [this](StatusOr<AddResp> resp) {
                            if (resp.ok()) {
                              results.push_back(*resp);
                            } else {
                              errors.push_back(resp.status());
                            }
                          },
                          options);
  }

  int issued = 0;
  std::vector<AddResp> results;
  std::vector<Status> errors;
};

struct RpcWorld {
  SimDomain domain;
  Calculator* calc_a = nullptr;
  Calculator* calc_b = nullptr;
  CallerService* caller = nullptr;

  explicit RpcWorld(uint64_t seed, bool two_providers = false)
      : domain(seed) {
    auto& n1 = domain.add_node("server-a");
    auto a = std::make_unique<Calculator>("a");
    calc_a = a.get();
    (void)n1.add_service(std::move(a));
    if (two_providers) {
      auto& n2 = domain.add_node("server-b");
      auto b = std::make_unique<Calculator>("b");
      calc_b = b.get();
      (void)n2.add_service(std::move(b));
    }
    auto& nc = domain.add_node("client");
    auto c = std::make_unique<CallerService>();
    caller = c.get();
    (void)nc.add_service(std::move(c));
  }

  size_t client_index() const { return calc_b ? 2 : 1; }
};

TEST(RpcTest, BasicRoundTrip) {
  RpcWorld w(31);
  w.domain.start_all();
  w.domain.run_for(milliseconds(500));
  w.caller->add(2, 3);
  w.domain.run_for(milliseconds(200));
  ASSERT_EQ(w.caller->results.size(), 1u);
  EXPECT_EQ(w.caller->results[0].sum, 5);
  EXPECT_EQ(w.caller->results[0].served_by, "a");
  EXPECT_EQ(w.domain.container(0).stats().rpc_served, 1u);
}

TEST(RpcTest, ApplicationErrorPropagates) {
  RpcWorld w(32);
  w.domain.start_all();
  w.domain.run_for(milliseconds(500));
  w.caller->add(-1, 3);
  w.domain.run_for(milliseconds(200));
  ASSERT_EQ(w.caller->errors.size(), 1u);
  EXPECT_EQ(w.caller->errors[0].code(), StatusCode::kInvalidArgument);
  EXPECT_NE(w.caller->errors[0].message().find("a must be >= 0"),
            std::string::npos);
}

TEST(RpcTest, CallWithNoProviderTimesOut) {
  SimDomain domain(33);
  auto& nc = domain.add_node("client");
  auto c = std::make_unique<CallerService>();
  auto* caller = c.get();
  (void)nc.add_service(std::move(c));
  domain.start_all();
  domain.run_for(milliseconds(100));
  caller->add(1, 1, {.timeout = milliseconds(300)});
  domain.run_for(seconds(1.0));
  ASSERT_EQ(caller->errors.size(), 1u);
  EXPECT_EQ(caller->errors[0].code(), StatusCode::kTimeout);
}

TEST(RpcTest, CallIssuedBeforeDiscoveryStillCompletes) {
  // The provider joins ~200ms after the call is issued; the middleware
  // keeps retrying provider selection until the deadline.
  SimDomain domain(34);
  auto& nc = domain.add_node("client");
  auto c = std::make_unique<CallerService>();
  auto* caller = c.get();
  (void)nc.add_service(std::move(c));
  ASSERT_TRUE(nc.start().is_ok());
  caller->add(4, 4, {.timeout = seconds(2.0)});
  domain.run_for(milliseconds(200));

  auto& ns = domain.add_node("server-late");
  auto calc = std::make_unique<Calculator>("late");
  (void)ns.add_service(std::move(calc));
  ASSERT_TRUE(ns.start().is_ok());
  domain.run_for(seconds(2.0));
  ASSERT_EQ(caller->results.size(), 1u);
  EXPECT_EQ(caller->results[0].sum, 8);
}

TEST(RpcTest, DynamicBindingLoadBalancesAcrossProviders) {
  RpcWorld w(35, /*two_providers=*/true);
  w.domain.start_all();
  w.domain.run_for(milliseconds(500));
  for (int i = 0; i < 20; ++i) w.caller->add(i, 1);
  w.domain.run_for(seconds(1.0));
  ASSERT_EQ(w.caller->results.size(), 20u);
  // §4.3 "load balancing techniques are used": both served a fair share.
  EXPECT_GE(w.calc_a->served, 8);
  EXPECT_GE(w.calc_b->served, 8);
}

TEST(RpcTest, FailoverToRedundantProviderOnDeath) {
  RpcWorld w(36, /*two_providers=*/true);
  w.domain.start_all();
  w.domain.run_for(milliseconds(500));
  // Kill provider A; calls must all keep succeeding via B.
  w.domain.kill_node(0);
  w.domain.run_for(milliseconds(100));
  for (int i = 0; i < 10; ++i) {
    w.caller->add(i, 1, {.timeout = seconds(2.0)});
  }
  w.domain.run_for(seconds(3.0));
  EXPECT_EQ(w.caller->results.size(), 10u);
  EXPECT_TRUE(w.caller->errors.empty());
  for (const auto& r : w.caller->results) {
    EXPECT_EQ(r.served_by, "b");
  }
}

TEST(RpcTest, InFlightCallFailsOverWhenTargetDies) {
  RpcWorld w(37, /*two_providers=*/true);
  w.domain.start_all();
  w.domain.run_for(milliseconds(500));
  // Issue calls, then kill whichever server would answer some of them,
  // *before* the responses can arrive (no run between issue and kill).
  for (int i = 0; i < 10; ++i) {
    w.caller->add(i, 2, {.timeout = seconds(3.0)});
  }
  w.domain.kill_node(0);
  w.domain.run_for(seconds(5.0));
  // All calls completed despite the death (failover redirected them).
  EXPECT_EQ(w.caller->results.size() + w.caller->errors.size(), 10u);
  EXPECT_GE(static_cast<int>(w.caller->results.size()), 9);
}

TEST(RpcTest, StaticBindingSticksToOneProvider) {
  RpcWorld w(38, /*two_providers=*/true);
  w.domain.start_all();
  w.domain.run_for(milliseconds(500));
  CallOptions opts;
  opts.binding = RpcBinding::kStatic;
  for (int i = 0; i < 10; ++i) w.caller->add(i, 1, opts);
  w.domain.run_for(seconds(1.0));
  ASSERT_EQ(w.caller->results.size(), 10u);
  // All served by the same (pinned) provider.
  for (const auto& r : w.caller->results) {
    EXPECT_EQ(r.served_by, w.caller->results[0].served_by);
  }
  EXPECT_TRUE((w.calc_a->served == 10 && w.calc_b->served == 0) ||
              (w.calc_a->served == 0 && w.calc_b->served == 10));
}

TEST(RpcTest, LocalProviderBypassesNetwork) {
  SimDomain domain(39);
  auto& n = domain.add_node("solo");
  auto calc = std::make_unique<Calculator>("local");
  auto* calc_ptr = calc.get();
  (void)n.add_service(std::move(calc));
  auto c = std::make_unique<CallerService>();
  auto* caller = c.get();
  (void)n.add_service(std::move(c));
  domain.start_all();
  domain.run_for(milliseconds(100));
  domain.network().reset_stats();
  caller->add(10, 20);
  domain.run_for(milliseconds(100));
  ASSERT_EQ(caller->results.size(), 1u);
  EXPECT_EQ(caller->results[0].sum, 30);
  EXPECT_EQ(calc_ptr->served, 1);
  EXPECT_EQ(domain.network().stats().bytes_sent, 0u);
}

TEST(RpcTest, RequiredFunctionEmergencyAndRecovery) {
  SimDomain domain(40);
  auto& nc = domain.add_node("client");
  class Needy final : public Service {
   public:
    Needy() : Service("needy") {}
    Status on_start() override {
      (void)require_function("math.add");
      return Status::ok();
    }
  };
  (void)nc.add_service(std::make_unique<Needy>());
  std::vector<std::string> emergencies;
  nc.set_emergency_handler(
      [&](const std::string& r) { emergencies.push_back(r); });
  domain.start_all();
  // After the grace period with no provider: emergency (§4.3).
  domain.run_for(seconds(2.0));
  ASSERT_GE(emergencies.size(), 1u);
  EXPECT_NE(emergencies[0].find("math.add"), std::string::npos);

  // Provider appears: requirement satisfied, no further emergencies.
  auto& ns = domain.add_node("server");
  (void)ns.add_service(std::make_unique<Calculator>("a"));
  ASSERT_TRUE(ns.start().is_ok());
  domain.run_for(seconds(1.0));
  size_t count = emergencies.size();

  // Provider dies again: a fresh emergency fires.
  domain.kill_node(1);
  domain.run_for(seconds(2.0));
  EXPECT_GT(emergencies.size(), count);
}

TEST(RpcTest, ReliableLinkRecoversFromOneSidedPeerLoss) {
  // Asymmetric outage, the data-mule failure mode: the client stops
  // hearing the server (declares it lost after heartbeat silence and
  // tears down its ARQ sender), while the server keeps hearing the
  // client's traffic and so keeps its ARQ receiver floor. When the
  // client's next sender life restarts sequences from zero, every frame
  // sits below that old floor — the server must reset its receiver state
  // on the new link session instead of re-acking them all as duplicates
  // (which reports "delivered" to the sender while delivering nothing).
  set_log_level(LogLevel::kError);
  RpcWorld w(913);
  w.domain.start_all();
  w.domain.run_for(milliseconds(500));

  // Build up reliable-link history so the server's receiver floor ends up
  // far above anything a restarted sender will stamp during the test.
  for (int i = 0; i < 30; ++i) {
    w.caller->add(i, 1);
    w.domain.run_for(milliseconds(50));
  }
  w.domain.run_for(milliseconds(500));
  ASSERT_EQ(w.caller->results.size(), 30u);

  const sim::NodeId server = w.domain.node_id(0);
  const sim::NodeId client = w.domain.node_id(1);
  sim::LinkFaults blackout;
  blackout.p_good_bad = 1.0;
  blackout.p_bad_good = 0.0;
  blackout.loss_good = 1.0;
  blackout.loss_bad = 1.0;
  w.domain.network().set_link_faults(server, client, blackout);
  w.domain.run_for(seconds(2.0));
  w.domain.network().clear_link_faults(server, client);
  w.domain.run_for(seconds(2.0));  // hellos re-establish the peer

  const size_t before = w.caller->results.size();
  w.caller->add(7, 35, {.timeout = seconds(2.0)});
  w.domain.run_for(seconds(3.0));
  ASSERT_EQ(w.caller->results.size(), before + 1)
      << "reliable link wedged after one-sided peer loss";
  EXPECT_EQ(w.caller->results.back().sum, 42);
}

TEST(RpcTest, UnknownFunctionOnProviderFailsOver) {
  // Container-level: a provider that stops providing answers NOT_FOUND;
  // the client treats that as fail-over-able.
  SimDomain domain(41);
  auto& nc = domain.add_node("client");
  auto c = std::make_unique<CallerService>();
  auto* caller = c.get();
  (void)nc.add_service(std::move(c));
  domain.start_all();
  domain.run_for(milliseconds(100));
  caller->add(1, 2, {.timeout = milliseconds(400), .max_failovers = 0});
  domain.run_for(seconds(1.0));
  ASSERT_EQ(caller->errors.size(), 1u);  // no provider at all -> timeout
}

// A node killed while calls wait for its CPU: kill_node's stop() erases
// the provisions those calls were to run. Each call must find its
// provision again when it gets the CPU and answer kUnavailable, not run
// a handler out of freed memory (a heap-use-after-free under ASan).
TEST(RpcProvisionLifetime, KillNodeWhileCallsWaitForTheCpu) {
  for (int offset_ms = 0; offset_ms <= 40; offset_ms += 5) {
    SCOPED_TRACE("kill at +" + std::to_string(offset_ms) + " ms");
    SimDomain domain(36);
    ContainerConfig slow;
    slow.handler_cost = milliseconds(10);
    auto& server = domain.add_node("server", slow);
    (void)server.add_service(std::make_unique<Calculator>("a"));
    auto local = std::make_unique<CallerService>();
    CallerService* local_caller = local.get();
    (void)server.add_service(std::move(local));
    auto& client = domain.add_node("client");
    auto remote = std::make_unique<CallerService>();
    CallerService* remote_caller = remote.get();
    (void)client.add_service(std::move(remote));
    domain.start_all();
    domain.run_for(milliseconds(500));

    // Two same-container calls (the bypass) and two over the network,
    // queued behind each other on the server's 10 ms handler cost.
    local_caller->add(1, 2);
    remote_caller->add(3, 4);
    local_caller->add(5, 6);
    remote_caller->add(7, 8);
    domain.run_for(milliseconds(offset_ms));
    domain.kill_node(0);
    domain.run_for(seconds(2.0));

    // The bypass answers every call: served before the kill, or
    // kUnavailable after it.
    EXPECT_EQ(local_caller->results.size() + local_caller->errors.size(), 2u);
    for (const Status& e : local_caller->errors) {
      EXPECT_EQ(e.code(), StatusCode::kUnavailable) << e.to_string();
    }
    // Remote calls resolve too: served, or failed once the server is gone.
    EXPECT_EQ(remote_caller->results.size() + remote_caller->errors.size(),
              2u);
  }
}

}  // namespace
}  // namespace marea::mw
