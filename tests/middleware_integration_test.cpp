// Whole-system integration: the Fig 3 image-processing mission in
// miniature, container membership/health behaviours, discovery and name
// management across joins and failures.
#include <gtest/gtest.h>

#include <memory>

#include "middleware/domain.h"
#include "services/camera_service.h"
#include "services/gps_service.h"
#include "services/ground_station.h"
#include "services/mission_control.h"
#include "services/storage_service.h"
#include "services/vision_service.h"

namespace marea::mw {
namespace {

using namespace marea::services;

struct Fig3World {
  SimDomain domain;
  GpsService* gps = nullptr;
  MissionControl* mc = nullptr;
  CameraService* camera = nullptr;
  VisionService* vision = nullptr;
  StorageService* storage = nullptr;
  GroundStation* gs = nullptr;

  explicit Fig3World(uint64_t seed) : domain(seed) {
    fdm::GeoPoint home{41.275, 1.986, 0.0};
    fdm::FlightPlan plan = fdm::FlightPlan::survey_grid(
        fdm::offset(home, 30.0, 300.0), 90.0, 400.0, 150.0, 2, 100.0, 24.0,
        "photo");

    GpsConfig gps_cfg;
    gps_cfg.time_scale = 20.0;  // fly fast

    auto& fcs = domain.add_node("fcs");
    auto g = std::make_unique<GpsService>(plan, home, 30.0, gps_cfg);
    gps = g.get();
    (void)fcs.add_service(std::move(g));

    auto& mission = domain.add_node("mission");
    MissionControlConfig mc_cfg;
    mc_cfg.image_width = 96;  // small: keeps the test fast
    mc_cfg.image_height = 96;
    auto m = std::make_unique<MissionControl>(plan, mc_cfg);
    mc = m.get();
    (void)mission.add_service(std::move(m));

    auto& payload = domain.add_node("payload");
    auto cam = std::make_unique<CameraService>();
    camera = cam.get();
    (void)payload.add_service(std::move(cam));
    auto vis = std::make_unique<VisionService>();
    vision = vis.get();
    (void)payload.add_service(std::move(vis));

    auto& st = domain.add_node("storage");
    auto s = std::make_unique<StorageService>();
    storage = s.get();
    (void)st.add_service(std::move(s));

    auto& ground = domain.add_node("ground");
    auto gsvc = std::make_unique<GroundStation>();
    gs = gsvc.get();
    (void)ground.add_service(std::move(gsvc));
  }
};

TEST(IntegrationTest, Fig3MissionRunsToCompletion) {
  set_log_level(LogLevel::kError);
  Fig3World w(71);
  w.domain.start_all();
  w.domain.run_for(seconds(120.0));

  // The mission flew and finished.
  EXPECT_EQ(w.mc->status().phase, "done");
  EXPECT_EQ(w.mc->photos_commanded(), 4u);
  EXPECT_EQ(w.camera->photos_taken(), 4u);
  // Photos reached both file subscribers over one multicast stream.
  EXPECT_EQ(w.vision->images_processed(), 4u);
  EXPECT_EQ(w.storage->files_stored(), 4u);
  // Ground station observed the mission.
  EXPECT_GT(w.gs->position_updates(), 100u);
  EXPECT_GT(w.gs->status_updates(), 0u);
  EXPECT_GE(w.gs->alerts(), 1u);  // at least mission-complete
  // GPS track was recorded via storage.record.
  EXPECT_GT(w.storage->samples_recorded(), 0u);
  EXPECT_GT(w.storage->fs().file_count(), 4u);  // photos + track log

  // Detection correctness: camera embeds (k*7+3)%5 targets -> photos with
  // >= 1 target produce detections: k=0:3, k=1:0, k=2:2, k=3:4 -> 3 hits.
  EXPECT_EQ(w.vision->detections_raised(), 3u);
  EXPECT_EQ(w.mc->detections_seen(), 3u);
  EXPECT_EQ(w.gs->detections(), 3u);
  w.domain.stop_all();
}

class StoreDriver final : public Service {
 public:
  StoreDriver() : Service("sdrv") {}
  Status on_start() override { return Status::ok(); }
  Status publish(const std::string& name, Buffer content) {
    return publish_file(name, std::move(content));
  }
  void store(const std::string& resource) {
    StoreRequest req;
    req.resource = resource;
    call<StoreRequest, Ack>(
        "storage.store", req,
        [this](StatusOr<Ack> a) {
          if (a.ok() && a->ok) ++acks;
        },
        {.timeout = seconds(2.0)});
  }
  int acks = 0;
};

TEST(IntegrationTest, StorageAtRestContainerCompressesAndRoundTrips) {
  set_log_level(LogLevel::kError);
  SimDomain domain(74);
  auto& pub_node = domain.add_node("pub");
  auto drv_owned = std::make_unique<StoreDriver>();
  StoreDriver* drv = drv_owned.get();
  (void)pub_node.add_service(std::move(drv_owned));
  auto& st_node = domain.add_node("storage");
  auto st_owned = std::make_unique<StorageService>();
  StorageService* storage = st_owned.get();
  (void)st_node.add_service(std::move(st_owned));
  domain.start_all();
  domain.run_for(seconds(1.0));

  drv->store("res.img");
  domain.run_for(seconds(1.0));
  ASSERT_EQ(drv->acks, 1);

  // Compressible imagery: flat rows.
  Buffer content;
  for (int r = 0; r < 16; ++r) {
    content.insert(content.end(), 512, static_cast<uint8_t>(r));
  }
  ASSERT_TRUE(drv->publish("res.img", content).is_ok());
  domain.run_for(seconds(5.0));
  ASSERT_EQ(storage->files_stored(), 1u);
  // At rest the revision is packed ([codec][hash][size][payload]) and
  // much smaller than the raw content.
  EXPECT_EQ(storage->stored_raw_bytes(), content.size());
  EXPECT_LT(storage->stored_disk_bytes(), content.size() / 2);
  // fetch() unpacks, decompresses and hash-verifies.
  auto fetched = storage->fetch("photos/res.img.r1");
  ASSERT_TRUE(fetched.ok()) << fetched.status().to_string();
  EXPECT_EQ(*fetched, content);
  // The raw fs bytes are the container, not the content.
  auto on_disk = storage->fs().read("photos/res.img.r1");
  ASSERT_TRUE(on_disk.ok());
  EXPECT_LT(on_disk->size(), content.size());
  domain.stop_all();
}

TEST(IntegrationTest, MissionSurvivesGroundStationLoss) {
  set_log_level(LogLevel::kError);
  Fig3World w(72);
  w.domain.start_all();
  w.domain.run_for(seconds(20.0));
  w.domain.kill_node(4);  // ground station vanishes mid-mission
  w.domain.run_for(seconds(100.0));
  // The on-board mission is unaffected (§3: loose coupling).
  EXPECT_EQ(w.mc->status().phase, "done");
  EXPECT_EQ(w.camera->photos_taken(), 4u);
  EXPECT_EQ(w.storage->files_stored(), 4u);
  w.domain.stop_all();
}

TEST(IntegrationTest, ContainersDiscoverEachOther) {
  set_log_level(LogLevel::kError);
  Fig3World w(73);
  w.domain.start_all();
  w.domain.run_for(seconds(1.0));
  for (size_t i = 0; i < w.domain.node_count(); ++i) {
    EXPECT_EQ(w.domain.container(i).known_peers().size(),
              w.domain.node_count() - 1)
        << "container " << i;
  }
  w.domain.stop_all();
}

TEST(IntegrationTest, ByeRemovesPeerImmediately) {
  set_log_level(LogLevel::kError);
  SimDomain domain(74);
  auto& a = domain.add_node("a");
  auto& b = domain.add_node("b");
  domain.start_all();
  domain.run_for(seconds(1.0));
  EXPECT_EQ(a.known_peers().size(), 1u);
  b.stop();  // graceful: broadcasts Bye
  domain.run_for(milliseconds(50));
  EXPECT_EQ(a.known_peers().size(), 0u);
}

TEST(IntegrationTest, HeartbeatSilenceDetectsDeath) {
  set_log_level(LogLevel::kError);
  SimDomain domain(75);
  auto& a = domain.add_node("a");
  (void)domain.add_node("b");
  domain.start_all();
  domain.run_for(seconds(1.0));
  EXPECT_EQ(a.known_peers().size(), 1u);
  domain.network().set_node_up(domain.node_id(1), false);  // crash, no Bye
  domain.run_for(seconds(1.0));
  EXPECT_EQ(a.known_peers().size(), 0u);
}

TEST(IntegrationTest, DirectoryReflectsManifests) {
  set_log_level(LogLevel::kError);
  Fig3World w(76);
  w.domain.start_all();
  w.domain.run_for(seconds(1.0));
  auto& dir = w.domain.container(4).directory();  // ground's view
  EXPECT_FALSE(
      dir.usable_count(proto::ItemKind::kVariable, "gps.position") == 0);
  EXPECT_FALSE(
      dir.usable_count(proto::ItemKind::kFunction, "camera.setup") == 0);
  EXPECT_FALSE(
      dir.usable_count(proto::ItemKind::kEvent, "vision.detection") == 0);
  EXPECT_TRUE(dir.usable_count(proto::ItemKind::kVariable, "nope") == 0);
  w.domain.stop_all();
}

TEST(IntegrationTest, ServiceHealthFailureGossiped) {
  set_log_level(LogLevel::kError);
  SimDomain domain(77);

  class FlakyService final : public Service {
   public:
    FlakyService() : Service("flaky") {}
    Status on_start() override {
      auto h = provide_variable("flaky.out", enc::f64_type(), {});
      return h.ok() ? Status::ok() : h.status();
    }
    Status health_check() override {
      return healthy ? Status::ok() : internal_error("broken");
    }
    bool healthy = true;
  };

  auto& a = domain.add_node("a");
  auto flaky = std::make_unique<FlakyService>();
  auto* flaky_ptr = flaky.get();
  (void)a.add_service(std::move(flaky));
  auto& b = domain.add_node("b");
  domain.start_all();
  domain.run_for(seconds(1.0));
  EXPECT_FALSE(
      b.directory().usable_count(proto::ItemKind::kVariable, "flaky.out") == 0);

  flaky_ptr->healthy = false;  // watchdog notices, gossips kFailed
  domain.run_for(seconds(1.0));
  EXPECT_TRUE(
      b.directory().usable_count(proto::ItemKind::kVariable, "flaky.out") == 0);
}

TEST(IntegrationTest, LossyNetworkStillCompletesMission) {
  set_log_level(LogLevel::kError);
  Fig3World w(78);
  sim::LinkParams lossy;
  lossy.loss = 0.05;
  w.domain.network().set_default_link(lossy);
  w.domain.start_all();
  w.domain.run_for(seconds(180.0));
  EXPECT_EQ(w.mc->status().phase, "done");
  EXPECT_EQ(w.camera->photos_taken(), 4u);
  EXPECT_EQ(w.vision->images_processed(), 4u);
  EXPECT_EQ(w.storage->files_stored(), 4u);
  w.domain.stop_all();
}


TEST(IntegrationTest, OperatorCommandsPauseAndAbortMission) {
  set_log_level(LogLevel::kError);
  Fig3World w(79);
  w.domain.start_all();
  w.domain.run_for(milliseconds(400));  // discovery + payload init settle

  // Pause early: the first photo waypoint (captured ~t=2.2s at this
  // time_scale) passes silently.
  w.gs->send_command("pause");
  w.domain.run_for(seconds(2.2));
  EXPECT_GE(w.gs->commands_acked(), 1u);
  EXPECT_TRUE(w.mc->paused());

  // Resume: the remaining photo waypoints trigger normally — some photos
  // were skipped during the pause, the rest were taken.
  w.gs->send_command("resume");
  w.domain.run_for(seconds(60.0));
  EXPECT_FALSE(w.mc->paused());
  EXPECT_GT(w.camera->photos_taken(), 0u);
  EXPECT_LT(w.camera->photos_taken(), 4u);

  // Abort: mission phase flips and stays aborted; resume is refused.
  w.gs->send_command("abort", "weather");
  w.domain.run_for(seconds(5.0));
  EXPECT_TRUE(w.mc->aborted());
  EXPECT_EQ(w.mc->status().phase, "aborted");
  uint64_t acked = w.gs->commands_acked();
  w.gs->send_command("resume");
  w.domain.run_for(seconds(2.0));
  EXPECT_EQ(w.gs->commands_acked(), acked);  // refused, not acked
  // The abort alert reached the operator log.
  bool abort_alert = false;
  for (const auto& a : w.gs->alert_log()) {
    if (a.kind == "abort") abort_alert = true;
  }
  EXPECT_TRUE(abort_alert);
  w.domain.stop_all();
}

TEST(IntegrationTest, PerServiceUsageCensus) {
  // §3 resource management: the container accounts every service's use of
  // the shared node resources.
  set_log_level(LogLevel::kError);
  Fig3World w(80);
  w.domain.start_all();
  w.domain.run_for(seconds(120.0));

  const auto& fcs_usage = w.domain.container(0).usage();
  ASSERT_TRUE(fcs_usage.count("gps"));
  EXPECT_GT(fcs_usage.at("gps").var_publishes, 1000u);
  EXPECT_EQ(fcs_usage.at("gps").events_published, 4u);  // waypoints

  const auto& mc_usage = w.domain.container(1).usage();
  ASSERT_TRUE(mc_usage.count("mission_control"));
  EXPECT_GE(mc_usage.at("mission_control").rpc_calls_issued, 11u);
  EXPECT_GT(mc_usage.at("mission_control").samples_delivered, 1000u);

  const auto& payload_usage = w.domain.container(2).usage();
  ASSERT_TRUE(payload_usage.count("camera"));
  EXPECT_EQ(payload_usage.at("camera").files_published, 4u);
  EXPECT_EQ(payload_usage.at("camera").rpc_calls_served, 1u);  // setup
  ASSERT_TRUE(payload_usage.count("vision"));
  EXPECT_GT(payload_usage.at("vision").file_bytes_delivered, 4u * 9000u);
  EXPECT_EQ(payload_usage.at("vision").events_published, 3u);

  const auto& storage_usage = w.domain.container(3).usage();
  ASSERT_TRUE(storage_usage.count("storage"));
  EXPECT_GT(storage_usage.at("storage").file_bytes_delivered, 4u * 9000u);
  w.domain.stop_all();
}

}  // namespace
}  // namespace marea::mw
