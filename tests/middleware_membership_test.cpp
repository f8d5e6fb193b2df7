// Membership: the manifest version counts content changes, steady state
// puts no hello on the wire, and a peer that missed a manifest change
// (here, across a partition shorter than the liveness bound) learns it
// from the version in our heartbeat by pulling the hello.
#include <gtest/gtest.h>

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

// Provides "probe.v" from the start, a second variable or a file on
// demand, and reports unhealthy once told to.
class Probe final : public Service {
 public:
  Probe() : Service("probe") {}
  Status on_start() override {
    return provide_variable<Reading>("probe.v").status();
  }
  Status health_check() override {
    return healthy ? Status::ok() : internal_error("probe broke");
  }
  Status provide_late() {
    return provide_variable<Reading>("probe.late").status();
  }
  Status publish(Buffer content) {
    return publish_file("probe.file", std::move(content));
  }
  bool healthy = true;
};

class FileSink final : public Service {
 public:
  FileSink() : Service("file_sink") {}
  Status on_start() override {
    return subscribe_file("probe.file",
                          [this](const proto::FileMeta& meta, const Buffer&) {
                            revision = meta.revision;
                          });
  }
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
  auto sink = std::make_unique<FileSink>();
  FileSink* s = sink.get();
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

// Two nodes, partitioned for less than the liveness bound.
struct PartitionRig {
  SimDomain domain{92};
  Probe* probe = nullptr;
  ContainerConfig cfg;

  PartitionRig() {
    set_log_level(LogLevel::kError);
    cfg.health_check_interval = milliseconds(50);
    auto pr = std::make_unique<Probe>();
    probe = pr.get();
    (void)domain.add_node("a", cfg).add_service(std::move(pr));
    (void)domain.add_node("b", cfg);
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
  PartitionRig rig;
  rig.partition();
  ASSERT_TRUE(rig.probe->provide_late().is_ok());
  const uint64_t at_heal = rig.heal_after(milliseconds(150));
  ASSERT_FALSE(rig.b().directory().provides(
      rig.a().config().id, proto::ItemKind::kVariable, "probe.late"))
      << "the change broadcast crossed the partition";

  rig.domain.run_for(rig.cfg.heartbeat_interval + kPullRtt);
  EXPECT_TRUE(rig.b().directory().provides(
      rig.a().config().id, proto::ItemKind::kVariable, "probe.late"));
  EXPECT_EQ(rig.a().stats().hellos_sent, at_heal + 1);  // the pulled one
  EXPECT_EQ(rig.b().stats().name_queries_sent, 0u);
}

TEST(MembershipTest, ServiceFailedInPartitionIsMaskedAfterPull) {
  PartitionRig rig;
  ASSERT_EQ(rig.b().directory().providers(proto::ItemKind::kVariable,
                                          "probe.v").size(),
            1u);
  rig.partition();
  rig.probe->healthy = false;
  const uint64_t at_heal = rig.heal_after(milliseconds(150));
  ASSERT_EQ(rig.b().directory().providers(proto::ItemKind::kVariable,
                                          "probe.v").size(),
            1u)
      << "the failure broadcast crossed the partition";

  rig.domain.run_for(rig.cfg.heartbeat_interval + kPullRtt);
  EXPECT_TRUE(rig.b()
                  .directory()
                  .providers(proto::ItemKind::kVariable, "probe.v")
                  .empty());
  EXPECT_EQ(rig.a().stats().hellos_sent, at_heal + 1);
  EXPECT_EQ(rig.b().stats().name_queries_sent, 0u);
}

}  // namespace
}  // namespace marea::mw
