// Data-mule acceptance scenario (ROADMAP item 4): a field sensor node and
// a ground station sit ~20 km apart — far beyond LoRa reach — and a relay
// drone shuttles between them. The RadioModel continuously degrades both
// radio links with range (latency/loss/rate + edge fading), MissionControl
// watches the relay buffer and re-tasks the FCS between the field and the
// ground station, and the RelayService guarantees custody transfer:
//   * 100% of the events and file chunks taken into custody reach the
//     sink, in order, across contact windows and a scripted mid-run
//     blackout of the drone<->ground link;
//   * conflatable telemetry flows best-effort (freshest sample wins);
//   * the whole flight is deterministic: same seed => byte-identical
//     domain dump, sharded runs are worker-thread-count independent.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "encoding/typed.h"
#include "middleware/domain.h"
#include "services/gps_service.h"
#include "services/mission_control.h"
#include "services/relay_service.h"
#include "sim/radio.h"
#include "util/crc32.h"
#include "util/hash.h"

namespace marea::services {
namespace {

struct FieldSample {
  int64_t n = 0;
  double value = 0.0;
};

}  // namespace
}  // namespace marea::services

MAREA_REFLECT(marea::services::FieldSample, n, value)

namespace marea::services {
namespace {

// --- radio channel math --------------------------------------------------

TEST(RadioProfileTest, ConditionsMonotoneInRange) {
  for (const sim::RadioProfile& p :
       {sim::RadioProfile::lora(), sim::RadioProfile::los()}) {
    sim::RadioModel::LinkState prev = sim::RadioModel::conditions_at(p, 0.0);
    EXPECT_TRUE(prev.connected) << p.name;
    EXPECT_DOUBLE_EQ(prev.loss, p.loss_floor) << p.name;
    EXPECT_DOUBLE_EQ(prev.rate_bps, p.full_rate_bps) << p.name;
    for (int step = 1; step <= 60; ++step) {
      const double range = p.max_range_m * 1.2 * step / 60.0;
      const auto st = sim::RadioModel::conditions_at(p, range);
      EXPECT_GE(st.loss, prev.loss) << p.name << " @" << range;
      EXPECT_LE(st.rate_bps, prev.rate_bps) << p.name << " @" << range;
      EXPECT_GE(st.latency.ns, prev.latency.ns) << p.name << " @" << range;
      EXPECT_EQ(st.connected, range <= p.max_range_m) << p.name;
      if (!st.connected) {
        EXPECT_DOUBLE_EQ(st.loss, 1.0) << p.name;
        EXPECT_FALSE(st.fading) << p.name;
      } else {
        EXPECT_EQ(st.fading, range > p.fade_start * p.max_range_m) << p.name;
      }
      prev = st;
    }
  }
}

TEST(RadioModelTest, UpdateIsPureFunctionOfPositions) {
  const fdm::GeoPoint ground{41.5, 2.0, 0};
  const fdm::GeoPoint air = fdm::offset({41.5, 2.0, 120}, 45, 7000);
  auto build = [&] {
    sim::RadioModel m;
    m.set_position(1, ground);
    m.set_position(2, air);
    m.add_link(1, 2, sim::RadioProfile::lora());
    m.update();
    return m.link_state(1, 2);
  };
  const auto a = build();
  const auto b = build();
  EXPECT_DOUBLE_EQ(a.range_m, b.range_m);
  EXPECT_DOUBLE_EQ(a.loss, b.loss);
  EXPECT_DOUBLE_EQ(a.rate_bps, b.rate_bps);
  EXPECT_EQ(a.latency.ns, b.latency.ns);
  EXPECT_EQ(a.fading, b.fading);
  EXPECT_TRUE(a.connected);
  EXPECT_NEAR(a.range_m, 7000, 10);
}

// --- end-to-end data-mule scenario ---------------------------------------

Buffer blob_content(uint64_t key) {
  Buffer b(4096);
  Rng rng(key * 0x9E3779B97F4A7C15ull + 3);
  for (auto& byte : b) byte = static_cast<uint8_t>(rng.next_u64());
  for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(key >> (8 * i));
  return b;
}

uint64_t blob_key(const Buffer& content) {
  uint64_t key = 0;
  for (int i = 0; i < 8; ++i) {
    key |= static_cast<uint64_t>(content[i]) << (8 * i);
  }
  return key;
}

// The field asset: periodic telemetry (conflatable), custody events and
// an occasional file blob, all on the paper's plain primitives — the
// relay is transparent to it.
class FieldPublisher final : public mw::Service {
 public:
  FieldPublisher() : Service("field_pub") {}

  Status on_start() override {
    auto v = provide_variable<FieldSample>("field.telemetry",
                                           {.validity = seconds(2.0)});
    if (!v.ok()) return v.status();
    var_ = *v;
    auto e = provide_event<FieldSample>("field.event");
    if (!e.ok()) return e.status();
    event_ = *e;
    return Status::ok();
  }

  void publish_sample() {
    FieldSample s;
    s.n = ++samples_;
    s.value = 0.5 * static_cast<double>(s.n);
    (void)var_.publish(s);
  }
  void publish_event() {
    FieldSample s;
    s.n = ++events_;
    s.value = static_cast<double>(events_);
    (void)event_.publish(s);
  }
  void publish_blob() {
    ++blobs_;
    Buffer b = blob_content(blobs_);
    crcs_[blobs_] = crc32(as_bytes_view(b));
    (void)publish_file("field.blob", std::move(b));
  }
  // Same key framing, but a flat (maximally compressible) body — for the
  // capture-time compression tests.
  Status publish_compressible_blob() {
    ++blobs_;
    Buffer b(4096, 0);
    for (int i = 0; i < 8; ++i) b[i] = static_cast<uint8_t>(blobs_ >> (8 * i));
    crcs_[blobs_] = crc32(as_bytes_view(b));
    return publish_file("field.blob", std::move(b));
  }

  int64_t samples_published() const { return samples_; }
  int64_t events_published() const { return events_; }
  uint64_t blobs_published() const { return blobs_; }
  const std::map<uint64_t, uint32_t>& blob_crcs() const { return crcs_; }

 private:
  mw::VariableHandle var_;
  mw::EventHandle event_;
  int64_t samples_ = 0;
  int64_t events_ = 0;
  uint64_t blobs_ = 0;
  std::map<uint64_t, uint32_t> crcs_;  // blob key -> content CRC
};

// Ground-side consumer of the sink's republished resources: verifies the
// relayed streams through the same primitives any other service would use.
class RelayedChecker final : public mw::Service {
 public:
  explicit RelayedChecker(const FieldPublisher* pub)
      : Service("relay_check"), pub_(pub) {}

  Status on_start() override {
    Status s = subscribe_variable<FieldSample>(
        "field.telemetry.relayed",
        [this](const FieldSample& m, const mw::SampleInfo&) {
          ++telemetry_;
          // Freshest-wins: equal n is legal (a resubscription re-delivers
          // the latest sample), an older one never is.
          if (m.n < last_telemetry_n_) {
            violate("relayed telemetry went backwards: n=" +
                    std::to_string(m.n) + " after " +
                    std::to_string(last_telemetry_n_));
          }
          last_telemetry_n_ = m.n;
        });
    if (!s.is_ok()) return s;
    s = subscribe_event<FieldSample>(
        "field.event.relayed",
        [this](const FieldSample& m, const mw::EventInfo&) {
          ++events_;
          if (m.n <= last_event_n_) {
            violate("relayed event dup/reorder: n=" + std::to_string(m.n) +
                    " after " + std::to_string(last_event_n_));
          }
          last_event_n_ = m.n;
        },
        {.ordered = true});
    if (!s.is_ok()) return s;
    return subscribe_file(
        "field.blob.relayed",
        [this](const proto::FileMeta&, const Buffer& content) {
          ++files_;
          if (content.size() < 8) {
            violate("relayed blob truncated");
            return;
          }
          auto it = pub_->blob_crcs().find(blob_key(content));
          if (it == pub_->blob_crcs().end() ||
              crc32(as_bytes_view(content)) != it->second) {
            violate("relayed blob content corrupt");
          }
        });
  }

  int64_t telemetry_count() const { return telemetry_; }
  int64_t event_count() const { return events_; }
  int64_t file_count() const { return files_; }
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  void violate(std::string what) {
    if (violations_.size() < 32) violations_.push_back(std::move(what));
  }

  const FieldPublisher* pub_;
  int64_t telemetry_ = 0;
  int64_t events_ = 0;
  int64_t files_ = 0;
  int64_t last_telemetry_n_ = 0;
  int64_t last_event_n_ = 0;
  std::vector<std::string> violations_;
};

struct MuleRun {
  std::string summary;  // human-readable counters (failure diagnostics)
  std::string dump;     // full domain dump, compared byte-for-byte
};

// One seeded data-mule flight. ~280 s of virtual time: the drone starts
// parked at the field node, custody backlog sends it to the ground
// station, the drained buffer sends it back — with a scripted 10 s
// blackout of the drone<->ground link on top of the radio model, and a
// quiet tail long enough for the stale-contact trigger to force one last
// delivery run.
MuleRun run_mule_scenario(uint64_t seed, uint32_t shards, uint32_t threads) {
  set_log_level(LogLevel::kError);

  sim::RadioModel radio(milliseconds(500));
  mw::SimDomain domain(seed, {},
                       mw::ShardOptions{.shards = shards, .threads = threads});

  const fdm::GeoPoint field_point{41.5, 2.0, 0};
  const fdm::GeoPoint ground_point = fdm::offset(field_point, 180, 20000);
  fdm::GeoPoint mule_start = field_point;
  mule_start.alt_m = 120;

  // Node 0: the field asset.
  auto& field_node = domain.add_node("field");
  auto pub_owned = std::make_unique<FieldPublisher>();
  FieldPublisher* pub = pub_owned.get();
  (void)field_node.add_service(std::move(pub_owned));

  // Node 1: the relay drone — FCS + mule-role relay + mission control.
  const std::vector<RelayRoute> routes = {
      RelayRoute::telemetry("field.telemetry",
                            enc::descriptor_of<FieldSample>()),
      RelayRoute::event("field.event", enc::descriptor_of<FieldSample>()),
      RelayRoute::file("field.blob"),
  };
  auto& mule_node = domain.add_node("mule");
  fdm::Waypoint hold;
  hold.position = mule_start;
  hold.speed_mps = 22;
  hold.action = "collect";
  fdm::FlightPlan initial_plan({hold});

  GpsConfig gps_cfg;
  gps_cfg.time_scale = 20.0;  // 22 m/s cruise flies the 20 km leg in ~45 s
  fdm::FdmConfig fdm_cfg;
  fdm_cfg.arrival_radius_m = 120;  // capture stays robust at scaled steps
  auto gps_owned = std::make_unique<GpsService>(initial_plan, mule_start, 180,
                                                gps_cfg, fdm_cfg);
  GpsService* gps = gps_owned.get();
  (void)mule_node.add_service(std::move(gps_owned));

  auto mule_owned =
      std::make_unique<RelayService>(RelayService::Role::kMule, routes);
  RelayService* mule = mule_owned.get();
  (void)mule_node.add_service(std::move(mule_owned));

  MissionControlConfig mc_cfg;
  mc_cfg.payload_enabled = false;
  mc_cfg.mule.enabled = true;
  mc_cfg.mule.field_point = field_point;
  mc_cfg.mule.ground_point = ground_point;
  mc_cfg.mule.backlog_high = 10;
  mc_cfg.mule.contact_stale = seconds(20.0);
  auto mc_owned = std::make_unique<MissionControl>(initial_plan, mc_cfg);
  MissionControl* mission = mc_owned.get();
  (void)mule_node.add_service(std::move(mc_owned));

  // Node 2: the ground station — sink-role relay + relayed-stream checker.
  auto& gs_node = domain.add_node("gs");
  auto sink_owned =
      std::make_unique<RelayService>(RelayService::Role::kSink, routes);
  RelayService* sink = sink_owned.get();
  (void)gs_node.add_service(std::move(sink_owned));
  auto check_owned = std::make_unique<RelayedChecker>(pub);
  RelayedChecker* checker = check_owned.get();
  (void)gs_node.add_service(std::move(check_owned));

  const sim::NodeId field_id = domain.node_id(0);
  const sim::NodeId mule_id = domain.node_id(1);
  const sim::NodeId gs_id = domain.node_id(2);

  // Field and ground station are mutually unreachable by construction —
  // only the mule's two LoRa links carry data.
  sim::LinkParams dead;
  dead.latency = milliseconds(50);
  dead.loss = 1.0;
  domain.for_each_network([&](sim::SimNetwork& net) {
    net.set_link_symmetric(field_id, gs_id, dead);
  });

  radio.set_position(field_id, field_point);
  radio.set_position(gs_id, ground_point);
  radio.set_position_provider(mule_id,
                              [gps] { return gps->aircraft().position; });
  radio.add_link(field_id, mule_id, sim::RadioProfile::lora());
  radio.add_link(mule_id, gs_id, sim::RadioProfile::lora());
  domain.set_radio(&radio);

  domain.start_all();
  domain.run_for(seconds(1.0));

  // Hard blackout of the delivery link, on the scripted-chaos overlay so
  // it composes with (and outlives any re-apply of) the radio overlay.
  sim::LinkFaults blackout;
  blackout.p_good_bad = 1.0;
  blackout.p_bad_good = 0.0;
  blackout.loss_bad = 1.0;

  const int steps = 560;  // 280 s in 500 ms slices
  for (int i = 0; i < steps; ++i) {
    if (i < 360) {  // workload stops at t=180 s; the tail drains
      if (i % 2 == 0) pub->publish_sample();   // 1 Hz telemetry
      if (i % 4 == 1) pub->publish_event();    // custody event every 2 s
      if (i == 6 || i == 14) pub->publish_blob();
    }
    if (i == 120) {
      domain.for_each_network([&](sim::SimNetwork& net) {
        net.set_link_faults_symmetric(mule_id, gs_id, blackout);
      });
    }
    if (i == 140) {
      domain.for_each_network([&](sim::SimNetwork& net) {
        net.clear_link_faults(mule_id, gs_id);
        net.clear_link_faults(gs_id, mule_id);
      });
    }
    domain.run_for(milliseconds(500));
  }

  // --- acceptance invariants ---------------------------------------------
  // The mission actually shuttled.
  EXPECT_GE(mission->replans_to_ground(), 1u) << "seed " << seed;
  EXPECT_GE(mission->replans_to_field(), 1u) << "seed " << seed;
  EXPECT_EQ(gps->plans_accepted(),
            mission->replans_to_ground() + mission->replans_to_field())
      << "seed " << seed;

  // Custody transfer: everything the mule took custody of reached the
  // sink — no loss across contact windows, outages or retransmissions.
  EXPECT_GT(mule->events_seen(), 5u) << "seed " << seed;
  EXPECT_EQ(sink->events_relayed(), mule->events_seen()) << "seed " << seed;
  EXPECT_EQ(mule->files_seen(), pub->blobs_published()) << "seed " << seed;
  EXPECT_EQ(sink->files_relayed(), pub->blobs_published()) << "seed " << seed;
  EXPECT_EQ(mule->status().dropped, 0u) << "seed " << seed;
  // The drain tail must leave the custody queue empty (events/files all
  // delivered — implied by the equalities above); at most one conflatable
  // telemetry slot may have been re-collected since the last contact.
  EXPECT_LE(mule->status().queued, 1u)
      << "seed " << seed << ": custody left on the mule after the drain tail";

  // Conflatable telemetry: best-effort but nonzero, freshest-wins.
  EXPECT_GT(sink->telemetry_relayed(), 0u) << "seed " << seed;
  EXPECT_LT(sink->telemetry_relayed(),
            static_cast<uint64_t>(pub->samples_published()))
      << "seed " << seed << ": conflation never kicked in?";

  // The relayed streams arrived intact and in order on the ground side.
  EXPECT_EQ(checker->event_count(), static_cast<int64_t>(sink->events_relayed()))
      << "seed " << seed;
  EXPECT_EQ(checker->file_count(),
            static_cast<int64_t>(sink->files_relayed()))
      << "seed " << seed;
  EXPECT_GT(checker->telemetry_count(), 0) << "seed " << seed;
  EXPECT_TRUE(checker->violations().empty()) << "seed " << seed << ":\n"
                                             << [&] {
                                                  std::string all;
                                                  for (const auto& v :
                                                       checker->violations()) {
                                                    all += v + "\n";
                                                  }
                                                  return all;
                                                }();

  std::string summary;
  summary += "samples=" + std::to_string(pub->samples_published());
  summary += " events=" + std::to_string(pub->events_published());
  summary += " blobs=" + std::to_string(pub->blobs_published());
  summary += " seen_s=" + std::to_string(mule->samples_seen());
  summary += " seen_e=" + std::to_string(mule->events_seen());
  summary += " seen_f=" + std::to_string(mule->files_seen());
  summary += " conflated=" + std::to_string(mule->status().conflated);
  summary += " accepted=" + std::to_string(sink->bundles_accepted());
  summary += " dup=" + std::to_string(sink->duplicates_ignored());
  summary += " relay_t=" + std::to_string(sink->telemetry_relayed());
  summary += " relay_e=" + std::to_string(sink->events_relayed());
  summary += " relay_f=" + std::to_string(sink->files_relayed());
  summary += " custody_us=" + std::to_string(sink->mean_custody_latency().ns /
                                             1000);
  summary += " to_gnd=" + std::to_string(mission->replans_to_ground());
  summary += " to_fld=" + std::to_string(mission->replans_to_field());
  summary += " radio_ticks=" + std::to_string(radio.updates());
  const sim::TrafficStats& ns = domain.network().stats();
  summary += " net_sent=" + std::to_string(ns.packets_sent);
  summary += " net_dropped=" + std::to_string(ns.packets_dropped);

  MuleRun run;
  run.summary = std::move(summary);
  run.dump = domain.dump_all_json();
  domain.set_radio(nullptr);
  return run;
}

TEST(DataMuleScenarioTest, CustodyDeliveredAcrossContactWindows) {
  MuleRun run = run_mule_scenario(/*seed=*/11, /*shards=*/1, /*threads=*/0);
  EXPECT_FALSE(run.summary.empty());
  EXPECT_FALSE(run.dump.empty());
}

TEST(DataMuleScenarioTest, SameSeedSameTrace) {
  MuleRun a = run_mule_scenario(11, 1, 0);
  MuleRun b = run_mule_scenario(11, 1, 0);
  EXPECT_EQ(a.summary, b.summary) << "data-mule counters are seed-unstable";
  EXPECT_EQ(a.dump, b.dump) << "data-mule dump is seed-unstable";
}

// --- custody content addressing ------------------------------------------

// Drives the sink's relay.deliver RPC directly with hand-built bundles:
// the verification path (decompress + hash check before custody) must
// refuse damaged file chunks so the mule retains and retries them.
class DeliverDriver final : public mw::Service {
 public:
  DeliverDriver() : Service("driver") {}
  Status on_start() override { return Status::ok(); }

  void deliver(RelayBundle b) {
    call<RelayBundle, RelayAck>(
        "relay.deliver", std::move(b),
        [this](StatusOr<RelayAck> ack) {
          if (ack.ok()) acks.push_back(*ack);
        },
        {.timeout = seconds(2.0)});
  }

  std::vector<RelayAck> acks;
};

TEST(RelayCustodyTest, SinkRejectsDamagedFileChunksUntilIntact) {
  set_log_level(LogLevel::kError);
  mw::SimDomain domain(/*seed=*/71);
  const std::vector<RelayRoute> routes = {RelayRoute::file("field.blob")};
  auto& sink_node = domain.add_node("gs");
  auto sink_owned =
      std::make_unique<RelayService>(RelayService::Role::kSink, routes);
  RelayService* sink = sink_owned.get();
  (void)sink_node.add_service(std::move(sink_owned));
  auto& drv_node = domain.add_node("drv");
  auto drv_owned = std::make_unique<DeliverDriver>();
  DeliverDriver* drv = drv_owned.get();
  (void)drv_node.add_service(std::move(drv_owned));
  domain.start_all();
  domain.run_for(seconds(1.0));

  Buffer raw(512, 0x42);  // compressible chunk
  const util::Compressor* lz = util::compressor_for(util::Codec::kLz);
  RelayBundle good;
  good.id = 1;
  good.mule = "m";
  good.klass = "file";
  good.name = "field.blob";
  good.chunk_index = 0;
  good.chunk_count = 2;
  good.revision = 1;
  good.chunk_hash = util::hash64(BytesView(raw));
  good.raw_size = static_cast<uint32_t>(raw.size());
  good.payload.resize(raw.size() - 1);
  good.payload.resize(lz->compress(BytesView(raw), good.payload));
  ASSERT_FALSE(good.payload.empty());
  good.codec = static_cast<uint32_t>(util::Codec::kLz);

  // 1) hash mismatch: right size, wrong bytes.
  RelayBundle bad_hash = good;
  bad_hash.chunk_hash ^= 0xFFFF;
  drv->deliver(bad_hash);
  domain.run_for(seconds(1.0));
  ASSERT_EQ(drv->acks.size(), 1u);
  EXPECT_FALSE(drv->acks[0].accepted);
  EXPECT_EQ(sink->bundles_rejected(), 1u);
  EXPECT_EQ(sink->bundles_accepted(), 0u);

  // 2) truncated compressed payload: decoder must refuse, not crash.
  RelayBundle truncated = good;
  truncated.payload.resize(truncated.payload.size() / 2);
  drv->deliver(truncated);
  domain.run_for(seconds(1.0));
  ASSERT_EQ(drv->acks.size(), 2u);
  EXPECT_FALSE(drv->acks[1].accepted);
  EXPECT_EQ(sink->bundles_rejected(), 2u);

  // 3) a forged raw_size far beyond what the payload could decode to:
  // refused before the sink sizes a buffer for it.
  RelayBundle forged = good;
  forged.raw_size = 0xFFFFFFFFu;
  drv->deliver(forged);
  domain.run_for(seconds(1.0));
  ASSERT_EQ(drv->acks.size(), 3u);
  EXPECT_FALSE(drv->acks[2].accepted);
  EXPECT_EQ(sink->bundles_rejected(), 3u);

  // 4) the same bundle id, intact this time — the reject path forgot the
  // id, so the retry is accepted as first-seen, not "duplicate".
  drv->deliver(good);
  domain.run_for(seconds(1.0));
  ASSERT_EQ(drv->acks.size(), 4u);
  EXPECT_TRUE(drv->acks[3].accepted);
  EXPECT_EQ(sink->bundles_accepted(), 1u);
  EXPECT_EQ(sink->duplicates_ignored(), 0u);
}

TEST(RelayCustodyTest, MuleCompressesFileCustodyAtCapture) {
  set_log_level(LogLevel::kError);
  mw::SimDomain domain(/*seed=*/72);
  const std::vector<RelayRoute> routes = {RelayRoute::file("field.blob")};
  auto& field_node = domain.add_node("field");
  auto pub_owned = std::make_unique<FieldPublisher>();
  FieldPublisher* pub = pub_owned.get();
  (void)field_node.add_service(std::move(pub_owned));
  auto& mule_node = domain.add_node("mule");
  auto mule_owned =
      std::make_unique<RelayService>(RelayService::Role::kMule, routes);
  RelayService* mule = mule_owned.get();
  (void)mule_node.add_service(std::move(mule_owned));
  auto& gs_node = domain.add_node("gs");
  auto sink_owned =
      std::make_unique<RelayService>(RelayService::Role::kSink, routes);
  RelayService* sink = sink_owned.get();
  (void)gs_node.add_service(std::move(sink_owned));
  auto check_owned = std::make_unique<RelayedChecker>(pub);
  RelayedChecker* checker = check_owned.get();
  (void)gs_node.add_service(std::move(check_owned));
  domain.start_all();
  domain.run_for(seconds(1.0));

  // A compressible blob: all-zero tail after the 8-byte key prefix.
  (void)pub->publish_compressible_blob();
  domain.run_for(seconds(20.0));
  EXPECT_EQ(mule->files_seen(), 1u);
  EXPECT_EQ(sink->files_relayed(), 1u);
  EXPECT_TRUE(checker->violations().empty());
  // Capture-time compression shrank the custody bytes.
  EXPECT_GT(mule->custody_raw_bytes(), 0u);
  EXPECT_LT(mule->custody_wire_bytes(), mule->custody_raw_bytes() / 2);
  EXPECT_EQ(sink->bundles_rejected(), 0u);
}

TEST(DataMuleScenarioTest, ShardedTraceIdenticalAcrossWorkerThreads) {
  MuleRun one = run_mule_scenario(11, /*shards=*/4, /*threads=*/1);
  MuleRun four = run_mule_scenario(11, /*shards=*/4, /*threads=*/4);
  EXPECT_EQ(one.summary, four.summary)
      << "sharded data-mule counters depend on worker-thread count";
  ASSERT_EQ(one.dump.size(), four.dump.size())
      << "sharded data-mule dumps differ in length across thread counts";
  EXPECT_EQ(one.dump, four.dump)
      << "sharded data-mule run is worker-thread-count dependent";
}

}  // namespace
}  // namespace marea::services
