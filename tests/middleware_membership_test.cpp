// Membership: the manifest version counts content changes, steady state
// puts no hello on the wire, a subscription to a name nobody provides
// puts nothing on it, and a peer that missed a manifest change (here,
// across a partition shorter than the liveness bound) learns it from the
// version in our heartbeat by pulling the hello.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "encoding/typed.h"
#include "middleware/domain.h"

namespace marea::mw {
namespace {

struct Reading {
  int32_t n = 0;
};

}  // namespace
}  // namespace marea::mw

MAREA_REFLECT(marea::mw::Reading, n)

namespace marea::mw {
namespace {

// Provides "probe.v" from the start and, on demand, a late name of each
// kind a subscriber binds to; reports unhealthy once told to.
class Probe final : public Service {
 public:
  Probe() : Service("probe") {}
  Status on_start() override {
    return provide_variable<Reading>("probe.v").status();
  }
  Status health_check() override {
    return healthy ? Status::ok() : internal_error("probe broke");
  }
  // The late name of `kind`: a manifest change.
  Status provide_late(proto::ItemKind kind) {
    switch (kind) {
      case proto::ItemKind::kVariable: {
        auto h = provide_variable<Reading>("probe.late");
        if (h.ok()) late_ = *h;
        return h.status();
      }
      case proto::ItemKind::kEvent: {
        auto h = provide_event<Reading>("probe.alarm");
        if (h.ok()) alarm_ = *h;
        return h.status();
      }
      default:
        return publish(Buffer(3000, 1));
    }
  }
  // One more publication of the late name of `kind`.
  Status publish_late(proto::ItemKind kind) {
    switch (kind) {
      case proto::ItemKind::kVariable: return late_.publish(Reading{1});
      case proto::ItemKind::kEvent: return alarm_.publish(Reading{1});
      default: return publish(Buffer(3000, 2));
    }
  }
  Status publish(Buffer content) {
    return publish_file("probe.file", std::move(content));
  }
  bool healthy = true;

 private:
  VariableHandle late_;
  EventHandle alarm_;
};

// Subscribes to the probe's late names and counts what arrives.
class Sink final : public Service {
 public:
  Sink() : Service("sink") {}
  Status on_start() override {
    Status s = subscribe_variable<Reading>(
        "probe.late", [this](const Reading&, const SampleInfo&) { ++samples; });
    if (!s.is_ok()) return s;
    s = subscribe_event<Reading>(
        "probe.alarm", [this](const Reading&, const EventInfo&) { ++alarms; });
    if (!s.is_ok()) return s;
    return subscribe_file("probe.file",
                          [this](const proto::FileMeta& meta, const Buffer&) {
                            revision = meta.revision;
                          });
  }
  uint64_t received(proto::ItemKind kind) const {
    switch (kind) {
      case proto::ItemKind::kVariable: return samples;
      case proto::ItemKind::kEvent: return alarms;
      default: return revision;
    }
  }
  uint64_t samples = 0;
  uint64_t alarms = 0;
  uint64_t revision = 0;
};

uint64_t hellos_sent(SimDomain& domain) {
  uint64_t n = 0;
  for (size_t i = 0; i < domain.node_count(); ++i) {
    n += domain.container(i).stats().hellos_sent;
  }
  return n;
}

// A peer hears our heartbeat at most one interval after a heal; the
// pull then takes one round trip. Three 200 µs one-way hops plus the
// handler costs fit in 1 ms.
constexpr Duration kPullRtt = milliseconds(1);

TEST(MembershipTest, SteadyStateAndFileRepublishSendNoHello) {
  set_log_level(LogLevel::kError);
  SimDomain domain(91);
  auto probe = std::make_unique<Probe>();
  Probe* p = probe.get();
  (void)domain.add_node("a").add_service(std::move(probe));
  auto sink = std::make_unique<Sink>();
  Sink* s = sink.get();
  (void)domain.add_node("b").add_service(std::move(sink));
  (void)domain.add_node("c");
  domain.start_all();
  domain.run_for(seconds(1.0));
  ASSERT_EQ(domain.container(1).known_peers().size(), 2u);

  const uint64_t settled = hellos_sent(domain);
  domain.run_for(seconds(5.0));
  EXPECT_EQ(hellos_sent(domain), settled) << "steady state sent a hello";

  // A new file name is a manifest change; its next revision is not.
  ASSERT_TRUE(p->publish(Buffer(3000, 1)).is_ok());
  domain.run_for(seconds(1.0));
  ASSERT_EQ(s->revision, 1u);
  const uint64_t named = hellos_sent(domain);
  EXPECT_EQ(named, settled + 1);  // one broadcast for the new name
  ASSERT_TRUE(p->publish(Buffer(3000, 2)).is_ok());
  domain.run_for(seconds(1.0));
  EXPECT_EQ(s->revision, 2u);
  EXPECT_EQ(hellos_sent(domain), named) << "a republish sent a hello";
}

TEST(MembershipTest, UnresolvedSubscriptionIsSilent) {
  set_log_level(LogLevel::kError);
  SimDomain domain(93);
  auto sink = std::make_unique<Sink>();
  Sink* s = sink.get();
  ServiceContainer& ground = domain.add_node("ground");
  (void)ground.add_service(std::move(sink));
  auto probe = std::make_unique<Probe>();
  Probe* p = probe.get();
  ServiceContainer& peer = domain.add_node("peer");
  (void)peer.add_service(std::move(probe));

  // Until the peer starts, a witness on its data port sees every frame
  // the ground container broadcasts.
  sim::SimNetwork& net = domain.network();
  const sim::NodeId ground_node = domain.node_id(0);
  const transport::Address witness{domain.node_id(1),
                                   peer.config().data_port};
  std::map<proto::MsgType, int> seen;
  ASSERT_TRUE(net.bind_frames(witness, [&](transport::Address,
                                           const SharedFrame& frame) {
                   auto header = proto::open_frame(frame.view(), nullptr);
                   if (header.ok()) ++seen[header->type];
                 }).is_ok());
  ASSERT_TRUE(ground.start().is_ok());
  domain.run_for(milliseconds(500));  // the start-up hello is out

  // A variable, an event and a file subscription to names nobody
  // provides send nothing but the container's heartbeats.
  seen.clear();
  const uint64_t sent = net.node_stats(ground_node).packets_sent;
  const Duration window = seconds(2.0);
  domain.run_for(window);
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[proto::MsgType::kHeartbeat],
            window.ns / ground.config().heartbeat_interval.ns);
  EXPECT_EQ(net.node_stats(ground_node).packets_sent - sent,
            static_cast<uint64_t>(seen[proto::MsgType::kHeartbeat]));
  net.unbind(witness);

  // The peer comes up, then publishes the file: its manifest change
  // broadcast is the one hello it sends, and it binds the subscription.
  ASSERT_TRUE(peer.start().is_ok());
  domain.run_for(seconds(1.0));
  ASSERT_EQ(ground.known_peers().size(), 1u);
  const uint64_t hellos = peer.stats().hellos_sent;
  ASSERT_TRUE(p->publish(Buffer(3000, 1)).is_ok());
  domain.run_for(milliseconds(20));
  EXPECT_EQ(s->revision, 1u);
  EXPECT_EQ(peer.stats().hellos_sent, hellos + 1);
}

// Two nodes, partitioned for less than the liveness bound.
struct PartitionRig {
  SimDomain domain{92};
  Probe* probe = nullptr;
  Sink* sink = nullptr;
  ContainerConfig cfg;

  PartitionRig() {
    set_log_level(LogLevel::kError);
    cfg.health_check_interval = milliseconds(50);
    auto pr = std::make_unique<Probe>();
    probe = pr.get();
    (void)domain.add_node("a", cfg).add_service(std::move(pr));
    auto sk = std::make_unique<Sink>();
    sink = sk.get();
    (void)domain.add_node("b", cfg).add_service(std::move(sk));
    domain.start_all();
    domain.run_for(seconds(1.0));
  }
  ServiceContainer& a() { return domain.container(0); }
  ServiceContainer& b() { return domain.container(1); }
  void partition() {
    domain.network().partition({domain.node_id(0)}, {domain.node_id(1)});
  }
  // Heals after `held`, which stays below the liveness bound so neither
  // side drops the other; returns a's hello count at the heal.
  uint64_t heal_after(Duration held) {
    EXPECT_LT(held.ns, (cfg.heartbeat_interval * cfg.liveness_factor).ns);
    domain.run_for(held);
    EXPECT_EQ(b().known_peers().size(), 1u);
    domain.network().heal();
    return a().stats().hellos_sent;
  }
};

TEST(MembershipTest, ManifestChangeMissedInPartitionArrivesByPull) {
  // A name of each kind, published inside the partition, with b already
  // subscribed: the pulled manifest is the only way b learns of it.
  const std::pair<proto::ItemKind, const char*> late[] = {
      {proto::ItemKind::kVariable, "probe.late"},
      {proto::ItemKind::kEvent, "probe.alarm"},
      {proto::ItemKind::kFile, "probe.file"},
  };
  for (const auto& [kind, name] : late) {
    SCOPED_TRACE(name);
    PartitionRig rig;
    const proto::ContainerId a = rig.a().config().id;
    rig.partition();
    ASSERT_TRUE(rig.probe->provide_late(kind).is_ok());
    const uint64_t at_heal = rig.heal_after(milliseconds(150));
    auto lists_a = [&] {
      for (const auto& rec : rig.b().directory().records(kind, name)) {
        if (rec.container == a) return true;
      }
      return false;
    };
    ASSERT_FALSE(lists_a())
        << "the change broadcast crossed the partition";

    rig.domain.run_for(rig.cfg.heartbeat_interval + kPullRtt);
    EXPECT_TRUE(lists_a());
    EXPECT_EQ(rig.a().stats().hellos_sent, at_heal + 1);  // the pulled one
    // Bound by now: the next publication reaches b's subscriber (a
    // file's first revision already came with the bind).
    ASSERT_TRUE(rig.probe->publish_late(kind).is_ok());
    rig.domain.run_for(kPullRtt);
    EXPECT_EQ(rig.sink->received(kind),
              kind == proto::ItemKind::kFile ? 2u : 1u);
  }
}

TEST(MembershipTest, ServiceFailedInPartitionIsMaskedAfterPull) {
  PartitionRig rig;
  ASSERT_EQ(rig.b().directory().usable_count(proto::ItemKind::kVariable,
                                          "probe.v"),
            1u);
  rig.partition();
  rig.probe->healthy = false;
  const uint64_t at_heal = rig.heal_after(milliseconds(150));
  ASSERT_EQ(rig.b().directory().usable_count(proto::ItemKind::kVariable,
                                          "probe.v"),
            1u)
      << "the failure broadcast crossed the partition";

  rig.domain.run_for(rig.cfg.heartbeat_interval + kPullRtt);
  EXPECT_TRUE(rig.b()
                  .directory()
                  .usable_count(proto::ItemKind::kVariable, "probe.v") == 0);
  EXPECT_EQ(rig.a().stats().hellos_sent, at_heal + 1);
}

}  // namespace
}  // namespace marea::mw
