// NameDirectory unit tests: manifest application, redundancy ordering,
// service states carried in manifests, invalidation, and the hit/miss
// accounting bench C8 relies on.
#include <gtest/gtest.h>

#include "middleware/directory.h"

namespace marea::mw {
namespace {

proto::ContainerHelloMsg manifest(
    uint16_t port,
    std::vector<std::pair<std::string, std::vector<proto::ProvidedItem>>>
        services) {
  proto::ContainerHelloMsg hello;
  hello.incarnation = 1;
  hello.data_port = port;
  for (auto& [name, items] : services) {
    proto::ServiceInfo svc;
    svc.name = name;
    svc.state = proto::ServiceState::kRunning;
    svc.items = items;
    hello.services.push_back(std::move(svc));
  }
  return hello;
}

proto::ProvidedItem item(proto::ItemKind kind, const std::string& name,
                         uint32_t hash = 1) {
  proto::ProvidedItem it;
  it.kind = kind;
  it.name = name;
  it.schema_hash = hash;
  return it;
}

bool lists(const NameDirectory& dir, proto::ContainerId container,
           proto::ItemKind kind, const std::string& name) {
  for (const ProviderRecord& rec : dir.records(kind, name)) {
    if (rec.container == container) return true;
  }
  return false;
}

TEST(DirectoryTest, HelloPopulatesRecords) {
  NameDirectory dir;
  dir.apply_hello(
      7, transport::Address{10, 999},
      manifest(4500, {{"gps",
                       {item(proto::ItemKind::kVariable, "gps.position"),
                        item(proto::ItemKind::kEvent, "gps.waypoint")}}}));
  auto rec = dir.resolve(proto::ItemKind::kVariable, "gps.position");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->container, 7u);
  EXPECT_EQ(rec->address.host, 10u);
  EXPECT_EQ(rec->address.port, 4500);  // manifest's data_port, not source
  EXPECT_EQ(rec->service, "gps");
  EXPECT_TRUE(lists(dir, 7, proto::ItemKind::kEvent, "gps.waypoint"));
  EXPECT_FALSE(lists(dir, 7, proto::ItemKind::kEvent, "gps.position"));
}

TEST(DirectoryTest, KindsAreSeparateNamespaces) {
  NameDirectory dir;
  dir.apply_hello(
      1, transport::Address{1, 1},
      manifest(4500, {{"svc",
                       {item(proto::ItemKind::kVariable, "x"),
                        item(proto::ItemKind::kFunction, "x")}}}));
  EXPECT_TRUE(dir.resolve(proto::ItemKind::kVariable, "x") != nullptr);
  EXPECT_TRUE(dir.resolve(proto::ItemKind::kFunction, "x") != nullptr);
  EXPECT_FALSE(dir.resolve(proto::ItemKind::kEvent, "x") != nullptr);
}

TEST(DirectoryTest, ReHelloReplacesPriorKnowledge) {
  NameDirectory dir;
  dir.apply_hello(
      1, transport::Address{1, 1},
      manifest(4500, {{"a", {item(proto::ItemKind::kVariable, "old")}}}));
  dir.apply_hello(
      1, transport::Address{1, 1},
      manifest(4500, {{"a", {item(proto::ItemKind::kVariable, "new")}}}));
  EXPECT_FALSE(dir.resolve(proto::ItemKind::kVariable, "old") != nullptr);
  EXPECT_TRUE(dir.resolve(proto::ItemKind::kVariable, "new") != nullptr);
  EXPECT_EQ(dir.record_count(), 1u);
  EXPECT_EQ(dir.stats().invalidations, 0u);  // replaced, not invalidated
}

TEST(DirectoryTest, RedundantProvidersAllListed) {
  NameDirectory dir;
  for (proto::ContainerId c = 1; c <= 3; ++c) {
    dir.apply_hello(
        c, transport::Address{c, 1},
        manifest(4500,
                 {{"echo", {item(proto::ItemKind::kFunction, "f")}}}));
  }
  auto records = dir.records(proto::ItemKind::kFunction, "f");
  ASSERT_EQ(records.size(), 3u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].container, i + 1);  // manifest arrival order
  }
}

// A manifest carrying `state` for the one service "gps" providing "v".
proto::ContainerHelloMsg gps_in_state(proto::ServiceState state) {
  auto hello =
      manifest(4500, {{"gps", {item(proto::ItemKind::kVariable, "v")}}});
  hello.services[0].state = state;
  return hello;
}

TEST(DirectoryTest, StatusUpdateMasksFailedProvider) {
  NameDirectory dir;
  dir.apply_hello(1, transport::Address{1, 1},
                  gps_in_state(proto::ServiceState::kRunning));
  // A state change reaches peers as the next manifest.
  dir.apply_hello(1, transport::Address{1, 1},
                  gps_in_state(proto::ServiceState::kFailed));
  EXPECT_TRUE(dir.usable_count(proto::ItemKind::kVariable, "v") == 0);

  // Recovery re-lists it.
  dir.apply_hello(1, transport::Address{1, 1},
                  gps_in_state(proto::ServiceState::kRunning));
  EXPECT_FALSE(dir.usable_count(proto::ItemKind::kVariable, "v") == 0);
}

TEST(DirectoryTest, DegradedStillUsable) {
  NameDirectory dir;
  dir.apply_hello(1, transport::Address{1, 1},
                  gps_in_state(proto::ServiceState::kRunning));
  dir.apply_hello(1, transport::Address{1, 1},
                  gps_in_state(proto::ServiceState::kDegraded));
  EXPECT_EQ(dir.usable_count(proto::ItemKind::kVariable, "v"), 1u);
}

TEST(DirectoryTest, DropContainerInvalidatesAndReports) {
  NameDirectory dir;
  dir.apply_hello(
      1, transport::Address{1, 1},
      manifest(4500, {{"a",
                       {item(proto::ItemKind::kVariable, "shared"),
                        item(proto::ItemKind::kVariable, "only1")}}}));
  dir.apply_hello(
      2, transport::Address{2, 1},
      manifest(4500, {{"b", {item(proto::ItemKind::kVariable, "shared")}}}));
  EXPECT_EQ(dir.drop_container(1), 2u);  // shared + only1 lost a provider
  EXPECT_EQ(dir.usable_count(proto::ItemKind::kVariable, "shared"), 1u);
  EXPECT_TRUE(dir.usable_count(proto::ItemKind::kVariable, "only1") == 0);
  EXPECT_EQ(dir.stats().invalidations, 2u);
}

TEST(DirectoryTest, HitMissAccounting) {
  NameDirectory dir;
  dir.apply_hello(
      1, transport::Address{1, 1},
      manifest(4500, {{"a", {item(proto::ItemKind::kVariable, "v")}}}));
  (void)dir.resolve(proto::ItemKind::kVariable, "v");
  (void)dir.resolve(proto::ItemKind::kVariable, "v");
  (void)dir.resolve(proto::ItemKind::kVariable, "missing");
  EXPECT_EQ(dir.stats().hits, 2u);
  EXPECT_EQ(dir.stats().misses, 1u);
}

TEST(DirectoryTest, QualifiedKeysDoNotCollide) {
  // "variable/x" vs service names containing slashes must not alias.
  NameDirectory dir;
  dir.apply_hello(
      1, transport::Address{1, 1},
      manifest(4500,
               {{"a", {item(proto::ItemKind::kVariable, "event/x")}}}));
  EXPECT_TRUE(
      dir.resolve(proto::ItemKind::kVariable, "event/x") != nullptr);
  EXPECT_FALSE(dir.resolve(proto::ItemKind::kEvent, "x") != nullptr);
}

}  // namespace
}  // namespace marea::mw
