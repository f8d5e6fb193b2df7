// Experiment F3 (paper Fig 3, §5): the image-processing scenario as a
// measured workload — the whole five-node mission with a message/byte
// census per primitive, photo-to-detection pipeline latency, and wire
// totals. This is the closest thing the paper has to an evaluation table;
// EXPERIMENTS.md records the measured census against the paper's
// qualitative description.
#include "bench_util.h"

#include "services/camera_service.h"
#include "services/gps_service.h"
#include "services/ground_station.h"
#include "services/mission_control.h"
#include "services/storage_service.h"
#include "services/vision_service.h"

namespace marea::bench {
namespace {

using namespace marea::services;

void fig3_mission(Report& report) {
  mw::SimDomain domain(30);
  fdm::GeoPoint home{41.275, 1.986, 0.0};
  fdm::FlightPlan plan = fdm::FlightPlan::survey_grid(
      fdm::offset(home, 30.0, 300.0), 90.0, 400.0, 150.0, 2, 100.0, 24.0,
      "photo");

  GpsConfig gps_cfg;
  gps_cfg.time_scale = 20.0;

  auto& fcs = domain.add_node("fcs");
  auto gps = std::make_unique<GpsService>(plan, home, 30.0, gps_cfg);
  auto* gps_ptr = gps.get();
  (void)fcs.add_service(std::move(gps));

  auto& mission = domain.add_node("mission");
  MissionControlConfig mc_cfg;
  mc_cfg.image_width = 128;
  mc_cfg.image_height = 128;
  auto mc = std::make_unique<MissionControl>(plan, mc_cfg);
  auto* mc_ptr = mc.get();
  (void)mission.add_service(std::move(mc));

  auto& payload = domain.add_node("payload");
  auto camera = std::make_unique<CameraService>();
  auto* camera_ptr = camera.get();
  (void)payload.add_service(std::move(camera));
  auto vision = std::make_unique<VisionService>();
  auto* vision_ptr = vision.get();
  (void)payload.add_service(std::move(vision));

  auto& storage_node = domain.add_node("storage");
  auto storage = std::make_unique<StorageService>();
  auto* storage_ptr = storage.get();
  (void)storage_node.add_service(std::move(storage));

  auto& ground = domain.add_node("ground");
  auto gs = std::make_unique<GroundStation>();
  auto* gs_ptr = gs.get();
  (void)ground.add_service(std::move(gs));

  domain.start_all();
  domain.run_for(seconds(120.0));

  // Mission outcomes.
  report["f3.mission.photos"] = camera_ptr->photos_taken();
  report["f3.mission.images_processed"] = vision_ptr->images_processed();
  report["f3.mission.detections"] = vision_ptr->detections_raised();
  report["f3.mission.files_stored"] =
      static_cast<double>(storage_ptr->files_stored());
  report["f3.mission.gps_samples"] =
      static_cast<double>(gps_ptr->samples_published());
  report["f3.mission.gs_pos_updates"] =
      static_cast<double>(gs_ptr->position_updates());
  report["f3.mission.mission_done"] =
      mc_ptr->status().phase == "done" ? 1.0 : 0.0;

  // Primitive census from the mission-node container (the orchestrator).
  const auto& mc_stats = domain.container(1).stats();
  report["f3.mission.mc_rpc_calls"] = static_cast<double>(mc_stats.rpc_calls);
  report["f3.mission.mc_events_published"] =
      static_cast<double>(mc_stats.events_published);
  report["f3.mission.mc_var_samples_rx"] =
      static_cast<double>(mc_stats.var_samples_received);

  // Network totals for the whole mission.
  const auto& net = domain.network().stats();
  report["f3.mission.wire_MB"] =
      static_cast<double>(net.bytes_sent) / (1024.0 * 1024.0);
  report["f3.mission.wire_packets"] = static_cast<double>(net.packets_sent);
  report["f3.mission.local_packets"] = static_cast<double>(net.local_packets);
  domain.stop_all();
}

// Pipeline latency: event trigger -> photo file published -> both
// consumers complete -> detection event back. Measured per photo.
void photo_pipeline(Report& report) {
  mw::SimDomain domain(31);

  // Trigger service standing in for mission control.
  class Trigger final : public mw::Service {
   public:
    Trigger() : Service("trigger") {}
    Status on_start() override {
      auto h = provide_event<TakePhotoCmd>("mission.take_photo");
      if (!h.ok()) return h.status();
      handle_ = *h;
      Status s = subscribe_event<Detection>(
          "vision.detection",
          [this](const Detection&, const mw::EventInfo&) {
            done_at = now();
          });
      if (!s.is_ok()) return s;
      // Camera setup.
      CameraSetup setup;
      setup.resource_prefix = "shot";
      setup.width = 128;
      setup.height = 128;
      call<CameraSetup, Ack>("camera.setup", setup, [](StatusOr<Ack>) {});
      ProcessRequest proc;
      proc.resource = "shot.1";
      call<ProcessRequest, Ack>("vision.process", proc, [](StatusOr<Ack>) {});
      return Status::ok();
    }
    void shoot() {
      TakePhotoCmd cmd;
      cmd.waypoint_index = 1;
      cmd.resource = "shot.1";
      fired_at = now();
      (void)handle_.publish(cmd);
    }
    mw::EventHandle handle_;
    TimePoint fired_at{};
    std::optional<TimePoint> done_at;
  };

  auto& n1 = domain.add_node("mission");
  auto trig = std::make_unique<Trigger>();
  auto* trig_ptr = trig.get();
  (void)n1.add_service(std::move(trig));
  auto& n2 = domain.add_node("payload");
  CameraConfig cam_cfg;
  cam_cfg.targets_at = [](uint32_t) { return 3u; };  // always detect
  (void)n2.add_service(std::make_unique<CameraService>(cam_cfg));
  (void)n2.add_service(std::make_unique<VisionService>());

  domain.start_all();
  domain.run_for(seconds(2.0));
  trig_ptr->shoot();
  domain.run_for(seconds(10.0));
  report["f3.pipeline.trigger_to_detection_ms"] =
      trig_ptr->done_at ? (*trig_ptr->done_at - trig_ptr->fired_at).millis()
                        : -1.0;
  domain.stop_all();
}

}  // namespace

void scenario(Report& report) {
  fig3_mission(report);
  photo_pipeline(report);
}

}  // namespace marea::bench
