// mission_sim: the five-node shape of the paper's Fig 3 on a lossy
// simulated radio network. fcs publishes GpsFix at 50 Hz to mission and
// ground; mission calls storage.echo at 20 Hz and raises take_photo at
// 4 Hz; payload answers each photo with a 16-128 KiB file (to storage and
// ground) and a detection event. Links lose 3% of packets independently,
// payload<->storage adds Gilbert-Elliott bursts, and every node's egress
// is rate limited. One op = one sample, event, call or file issued.
#include <algorithm>
#include <map>
#include <memory>

#include "sim_common.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

struct EchoRequest {
  uint64_t id = 0;
  std::string text;
  std::vector<double> data;
};

}  // namespace perfbench

MAREA_REFLECT(perfbench::EchoRequest, id, text, data)

namespace perfbench {
namespace {

using marea::Buffer;
using marea::TimePoint;
using marea::enc::Value;
using marea::services::Detection;
using marea::services::GpsFix;
using marea::services::TakePhotoCmd;

constexpr marea::Duration kTick = marea::milliseconds(10);
constexpr int kTicksPerSegment = 2000;  // 20 s virtual, 80 files
constexpr int kDetSegments = 30;        // 600 s virtual: >= 4000 events
constexpr int kSetupRepeats = 9;
constexpr int kFileSlots = 8;
constexpr int64_t kGpsValidityNs = 100'000'000;  // a newer fix within 100 ms
constexpr int kGpsRing = 1024;

enum NodeIdx { kFcs = 0, kMission, kPayload, kStorage, kGround };

std::string slot_name(uint64_t n) {
  return "photo." + std::to_string(n % kFileSlots);
}

EchoRequest echo_at(uint64_t seed, uint64_t id) {
  marea::Rng r(mix_seed(seed, 4, id));
  EchoRequest q;
  q.id = id;
  q.text = "rec" + std::to_string(r.uniform(0, 1u << 20));
  q.data.resize(8);
  for (double& d : q.data) d = r.uniform_real(-1, 1);
  return q;
}

uint64_t hash_echo(const EchoRequest& q) {
  uint64_t h = fold(0, q.id);
  h = fold_string(h, q.text);
  for (double d : q.data) h = fold_double(h, d);
  return h;
}

// File n: a compressible synthetic image (even n) or incompressible noise
// (odd n). In each group of 8 files the images take a seeded order of 16,
// 48, 80 and 112 KiB and the noise files of 32, 64, 96 and 128 KiB, so
// every seed moves the same bytes of each kind. Every 5th file from
// n >= kFileSlots republishes file n - kFileSlots byte for byte (same
// slot, so same resource name).
size_t file_size(uint64_t seed, uint64_t n) {
  size_t kib[4];
  for (int i = 0; i < 4; ++i) kib[i] = static_cast<size_t>(16 + 32 * i + 16 * (n % 2));
  marea::Rng r(mix_seed(seed, 7, n / kFileSlots * 2 + n % 2));
  for (int i = 3; i > 0; --i) std::swap(kib[i], kib[r.uniform(0, static_cast<uint64_t>(i))]);
  return kib[n % kFileSlots / 2] * 1024;
}

Buffer file_content(uint64_t seed, uint64_t n) {
  if (n >= kFileSlots && n % 5 == 4) return file_content(seed, n - kFileSlots);
  marea::Rng r(mix_seed(seed, 5, n));
  const size_t size = file_size(seed, n);
  Buffer b(size);
  if (n % 2 == 1) {
    uint64_t x = r.next_u64() | 1;
    for (size_t i = 0; i + 8 <= size; i += 8) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      for (int k = 0; k < 8; ++k) b[i + k] = static_cast<uint8_t>(x >> (8 * k));
    }
  } else {
    const uint64_t base = r.next_u64();
    for (size_t i = 0; i < size; ++i) {
      const size_t row = i / 256;
      b[i] = static_cast<uint8_t>(row % 3 == 0 ? base + row
                                               : (i * (row % 7 + 1)) >> 3);
    }
  }
  return b;
}

struct Latencies {
  bool recording = false;
  std::vector<double> event_us;
  std::vector<double> rpc_ms;
  std::vector<double> file_ms;
};

// Everything the checks compare against, filled as ops are issued.
struct Ledger {
  uint64_t seed = 0;
  uint64_t op = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Latencies lat;
  // gps
  uint64_t gps_published = 0;
  uint64_t gps_stale = 0;
  int64_t gps_pub_ns[kGpsRing] = {};
  // events
  uint64_t photos_published = 0;
  // rpc
  uint64_t calls_issued = 0;
  uint64_t calls_ok = 0;
  std::map<uint64_t, int64_t> call_issued_ns;
  // files: (slot, revision) -> content hash, publish time, completions
  struct FileRec {
    uint64_t hash = 0;
    int64_t published_ns = 0;
    int64_t done_ns[2] = {-1, -1};  // storage, ground
    bool counted = false;
  };
  std::map<std::pair<uint64_t, uint32_t>, FileRec> files;
  uint32_t slot_revision[kFileSlots] = {};
  uint64_t det_file_bytes = 0;  // raw bytes of files in the det window
  std::vector<std::string> errors;

  void error(std::string e) {
    if (errors.size() < 20) errors.push_back(std::move(e));
  }
};

class Fcs final : public marea::mw::Service {
 public:
  explicit Fcs(Ledger& l) : Service("fcs"), l_(l) {}
  marea::Status on_start() override {
    auto h = provide_variable<GpsFix>("gps.position");
    if (!h.ok()) return h.status();
    gps_ = *h;
    return marea::Status::ok();
  }
  // `counted`: an op of the run (fixes published while draining only keep
  // the subscribers' watermarks moving).
  void publish_fix(bool counted = true) {
    const uint64_t k = l_.gps_published++;
    const uint64_t op = ++l_.op;
    if (counted) ++l_.attempted;
    l_.gps_pub_ns[(k + 1) % kGpsRing] = now().ns;  // provider seq is k + 1
    Value v;
    {
      Span s(Layer::kToValue, op);
      v = marea::enc::to_value(gps_fix_at(l_.seed, k));
    }
    Span s(Layer::kMiddleware, op);
    (void)gps_.publish(std::move(v));
  }

 private:
  Ledger& l_;
  marea::mw::VariableHandle gps_;
};

// A GpsFix subscriber: every published fix must be superseded-or-received
// within its validity (best-effort variables may drop samples, never
// regress or go stale), and every fix received must be the seeded one.
class GpsWatcher {
 public:
  explicit GpsWatcher(Ledger& l) : l_(l) {}
  void on_sample(const Value& v, const marea::mw::SampleInfo& info,
                 TimePoint now) {
    GpsFix f{};
    bool ok = false;
    {
      Span s(Layer::kFromValue, info.seq);
      ok = marea::enc::from_value(v, f);
    }
    Span s(Layer::kHandler, info.seq);
    ++seen;
    if (!ok || hash_fix(0, f) != hash_fix(0, gps_fix_at(l_.seed, info.seq - 1))) {
      l_.error("gps sample content mismatch at seq " + std::to_string(info.seq));
      return;
    }
    cover(info.seq, now.ns);
  }
  // Marks seqs up to `seq` as covered at `t_ns`.
  void cover(uint64_t seq, int64_t t_ns) {
    if (seq <= max_seq_) return;
    for (uint64_t p = max_seq_ + 1; p <= seq; ++p) {
      if (p <= base_ || p > end_) continue;
      if (t_ns - l_.gps_pub_ns[p % kGpsRing] > kGpsValidityNs) {
        ++l_.failed;
        ++l_.gps_stale;
      }
    }
    max_seq_ = seq;
  }
  void start_counting(uint64_t published) { base_ = published; }
  void stop_counting(uint64_t published) { end_ = published; }
  uint64_t seen = 0;

 private:
  Ledger& l_;
  uint64_t max_seq_ = 0;
  uint64_t base_ = UINT64_MAX / 2;
  uint64_t end_ = UINT64_MAX;
};

class Mission final : public marea::mw::Service {
 public:
  explicit Mission(Ledger& l) : Service("mission"), gps(l), l_(l) {}
  marea::Status on_start() override {
    auto e = provide_event<TakePhotoCmd>("mission.take_photo");
    if (!e.ok()) return e.status();
    photo_ = *e;
    marea::Status s = subscribe_variable(
        "gps.position", marea::enc::descriptor_of<GpsFix>(),
        [this](const Value& v, const marea::mw::SampleInfo& info) {
          gps.on_sample(v, info, now());
        });
    if (!s.is_ok()) return s;
    return subscribe_event(
        "payload.detection", marea::enc::descriptor_of<Detection>(),
        [this](const Value& v, const marea::mw::EventInfo& info) {
          on_detection(v, info);
        },
        {.ordered = true});
  }

  void take_photo() {
    const uint64_t n = ++l_.photos_published;
    const uint64_t op = ++l_.op;
    ++l_.attempted;
    TakePhotoCmd cmd;
    cmd.waypoint_index = static_cast<uint32_t>(n);
    cmd.resource = slot_name(n);
    cmd.lat_deg = gps_fix_at(l_.seed, n).lat_deg;
    cmd.lon_deg = gps_fix_at(l_.seed, n).lon_deg;
    Value v;
    {
      Span s(Layer::kToValue, op);
      v = marea::enc::to_value(cmd);
    }
    Span s(Layer::kMiddleware, op);
    (void)photo_.publish(std::move(v));
  }

  void call_echo() {
    const uint64_t id = ++l_.calls_issued;
    const uint64_t op = ++l_.op;
    ++l_.attempted;
    l_.call_issued_ns[id] = now().ns;
    Value v;
    {
      Span s(Layer::kToValue, op);
      v = marea::enc::to_value(echo_at(l_.seed, id));
    }
    Span s(Layer::kMiddleware, op);
    call("storage.echo", std::move(v),
         [this, id](marea::StatusOr<Value> res) { on_echo(id, std::move(res)); },
         {.timeout = marea::seconds(2.0), .max_failovers = 0});
  }

  uint64_t detections = 0;
  GpsWatcher gps;

 private:
  void on_detection(const Value& v, const marea::mw::EventInfo& info) {
    Detection d{};
    bool ok = false;
    {
      Span s(Layer::kFromValue, info.seq);
      ok = marea::enc::from_value(v, d);
    }
    Span s(Layer::kHandler, info.seq);
    // Events published before discovery finished have no subscriber yet;
    // the stream starts at whatever arrives first and is gapless after.
    const uint64_t expect = detections ? detections + 1 : d.features;
    if (!ok || d.features != expect || d.resource != slot_name(expect)) {
      l_.error("detection out of order: got " + std::to_string(d.features) +
               ", expected " + std::to_string(expect));
      ++l_.failed;
    }
    detections = std::max<uint64_t>(detections, d.features);
    if (l_.lat.recording) {
      l_.lat.event_us.push_back(static_cast<double>(info.latency.ns) / 1e3);
    }
  }

  void on_echo(uint64_t id, marea::StatusOr<Value> res) {
    EchoRequest back{};
    bool ok = res.ok();
    {
      Span s(Layer::kFromValue, id);
      ok = ok && marea::enc::from_value(*res, back);
    }
    Span s(Layer::kHandler, id);
    auto it = l_.call_issued_ns.find(id);
    if (it == l_.call_issued_ns.end()) {
      l_.error("echo response for unknown call " + std::to_string(id));
      return;
    }
    if (!ok || hash_echo(back) != hash_echo(echo_at(l_.seed, id))) {
      l_.error(res.ok() ? "echo response does not echo its request"
                        : "echo call failed: " + res.status().to_string());
      ++l_.failed;
    } else {
      ++l_.calls_ok;
      if (l_.lat.recording) {
        l_.lat.rpc_ms.push_back(static_cast<double>(now().ns - it->second) /
                                1e6);
      }
    }
    l_.call_issued_ns.erase(it);
  }

  Ledger& l_;
  marea::mw::EventHandle photo_;
};

class Payload final : public marea::mw::Service {
 public:
  explicit Payload(Ledger& l) : Service("payload"), l_(l) {}
  marea::Status on_start() override {
    auto e = provide_event<Detection>("payload.detection");
    if (!e.ok()) return e.status();
    detection_ = *e;
    return subscribe_event(
        "mission.take_photo", marea::enc::descriptor_of<TakePhotoCmd>(),
        [this](const Value& v, const marea::mw::EventInfo& info) {
          on_photo(v, info);
        },
        {.ordered = true});
  }
  uint64_t photos = 0;

 private:
  void on_photo(const Value& v, const marea::mw::EventInfo& info) {
    TakePhotoCmd cmd{};
    bool ok = false;
    {
      Span s(Layer::kFromValue, info.seq);
      ok = marea::enc::from_value(v, cmd);
    }
    const uint64_t expect = photos ? photos + 1 : cmd.waypoint_index;
    if (!ok || cmd.waypoint_index != expect || cmd.resource != slot_name(expect)) {
      l_.error("take_photo out of order: got " +
               std::to_string(cmd.waypoint_index) + ", expected " +
               std::to_string(expect));
      ++l_.failed;
      return;
    }
    photos = expect;
    if (l_.lat.recording) {
      l_.lat.event_us.push_back(static_cast<double>(info.latency.ns) / 1e3);
    }
    publish_photo(expect);
    publish_detection(expect);
  }

  void publish_photo(uint64_t n) {
    Buffer content = file_content(l_.seed, n - 1);
    const uint64_t slot = n % kFileSlots;
    const uint32_t rev = ++l_.slot_revision[slot];
    Ledger::FileRec& rec = l_.files[{slot, rev}];
    rec.hash = marea::util::hash64(marea::BytesView(content));
    rec.published_ns = now().ns;
    rec.counted = l_.lat.recording;
    if (rec.counted) l_.det_file_bytes += content.size();
    ++l_.attempted;
    Span s(Layer::kMiddleware, ++l_.op);
    (void)publish_file(slot_name(n), std::move(content));
  }

  void publish_detection(uint64_t n) {
    ++l_.attempted;
    const uint64_t op = ++l_.op;
    Detection d;
    d.resource = slot_name(n);
    d.features = static_cast<uint32_t>(n);
    d.score = marea::Rng(mix_seed(l_.seed, 6, n)).next_double();
    Value v;
    {
      Span s(Layer::kToValue, op);
      v = marea::enc::to_value(d);
    }
    Span s(Layer::kMiddleware, op);
    (void)detection_.publish(std::move(v));
  }

  Ledger& l_;
  marea::mw::EventHandle detection_;
};

// Receives every photo slot and checks each completed revision against
// the published content hash.
class FileSink {
 public:
  FileSink(Ledger& l, int which) : l_(l), which_(which) {}
  void on_file(const marea::proto::FileMeta& meta, const Buffer& content,
               TimePoint now) {
    Span s(Layer::kHandler, meta.revision);
    const uint64_t slot = std::stoull(meta.name.substr(6));
    auto it = l_.files.find({slot, meta.revision});
    if (it == l_.files.end() ||
        marea::util::hash64(marea::BytesView(content)) != it->second.hash) {
      l_.error("file " + meta.name + " rev " + std::to_string(meta.revision) +
               " does not match the published content");
      ++l_.failed;
      return;
    }
    if (it->second.done_ns[which_] < 0) it->second.done_ns[which_] = now.ns;
    ++completed;
  }
  uint64_t completed = 0;

 private:
  Ledger& l_;
  int which_;
};

class Storage final : public marea::mw::Service {
 public:
  explicit Storage(Ledger& l) : Service("storage"), files(l, 0) {}
  marea::Status on_start() override {
    marea::Status s = provide_function(
        "storage.echo", marea::enc::descriptor_of<EchoRequest>(),
        marea::enc::descriptor_of<EchoRequest>(),
        [](const Value& args) -> marea::StatusOr<Value> { return args; });
    for (int i = 0; s.is_ok() && i < kFileSlots; ++i) {
      s = subscribe_file(slot_name(static_cast<uint64_t>(i)),
                         [this](const marea::proto::FileMeta& m,
                                const Buffer& c) { files.on_file(m, c, now()); });
    }
    return s;
  }
  FileSink files;
};

class Ground final : public marea::mw::Service {
 public:
  explicit Ground(Ledger& l) : Service("ground"), files(l, 1), gps(l) {}
  marea::Status on_start() override {
    marea::Status s = subscribe_variable(
        "gps.position", marea::enc::descriptor_of<GpsFix>(),
        [this](const Value& v, const marea::mw::SampleInfo& info) {
          gps.on_sample(v, info, now());
        });
    for (int i = 0; s.is_ok() && i < kFileSlots; ++i) {
      s = subscribe_file(slot_name(static_cast<uint64_t>(i)),
                         [this](const marea::proto::FileMeta& m,
                                const Buffer& c) { files.on_file(m, c, now()); });
    }
    return s;
  }
  FileSink files;
  GpsWatcher gps;
};

struct World {
  Ledger ledger;
  std::unique_ptr<marea::mw::SimDomain> domain;
  Fcs* fcs = nullptr;
  Mission* mission = nullptr;
  Payload* payload = nullptr;
  Storage* storage = nullptr;
  Ground* ground = nullptr;
  uint64_t tick = 0;

  // One 10 ms tick: GpsFix every 2nd, echo call every 5th, photo every
  // 25th, then the simulator advances (the payload's file and detection
  // ops are issued from inside the simulation).
  void step() {
    if (tick % 2 == 0) fcs->publish_fix();
    if (tick % 5 == 0) mission->call_echo();
    if (tick % 25 == 0) mission->take_photo();
    ++tick;
    Span s(Layer::kSim, ledger.op);
    domain->run_for(kTick);
  }
  bool ready() const {
    return mission->gps.seen > 0 && ground->gps.seen > 0 &&
           ledger.calls_ok > 0 && payload->photos > 0 &&
           mission->detections > 0 && storage->files.completed > 0 &&
           ground->files.completed > 0;
  }
};

bool build(World& w, uint64_t seed) {
  w.ledger.seed = seed;
  marea::sim::LinkParams link;
  link.latency = marea::milliseconds(2);
  link.jitter = marea::microseconds(500);
  link.loss = 0.03;
  link.rate_bps = 8e6;
  w.domain = std::make_unique<marea::mw::SimDomain>(seed, link);
  // MFTP gives up on a subscriber after max_status_retries unanswered
  // polls, and a container whose subscriber was given up on is not sent
  // later revisions of that resource either; patience well above the
  // longest loss burst keeps every file op completing.
  // Likewise a peer is declared lost after liveness_factor heartbeat
  // periods of silence; at 3% loss the default 3.5 periods trips every few
  // virtual minutes. Ten periods keep the run free of spurious peer loss.
  marea::mw::ContainerConfig cfg;
  cfg.mftp.max_status_retries = 50;
  cfg.liveness_factor = 10;
  auto add = [&](const char* name, auto svc) {
    auto* raw = svc.get();
    (void)w.domain->add_node(name, cfg).add_service(std::move(svc));
    return raw;
  };
  w.fcs = add("fcs", std::make_unique<Fcs>(w.ledger));
  w.mission = add("mission", std::make_unique<Mission>(w.ledger));
  w.payload = add("payload", std::make_unique<Payload>(w.ledger));
  w.storage = add("storage", std::make_unique<Storage>(w.ledger));
  w.ground = add("ground", std::make_unique<Ground>(w.ledger));
  marea::sim::LinkFaults burst;
  burst.p_good_bad = 0.01;
  burst.p_bad_good = 0.3;
  burst.loss_bad = 0.5;
  w.domain->network().set_link_faults_symmetric(
      w.domain->node_id(kPayload), w.domain->node_id(kStorage), burst);
  return start_and_discover(*w.domain, marea::seconds(3.0));
}

// Traffic until every path (sample, call, both events, files at both
// receivers) has delivered once, then 2 s more of steady traffic.
bool warm_up(World& w) {
  const uint64_t give_up = w.tick + 3000;  // 30 s virtual
  while (!w.ready() && w.tick < give_up) w.step();
  for (int i = 0; i < 200; ++i) w.step();
  if (w.ready()) return true;
  std::fprintf(stderr,
               "mission_sim: not ready after %llu ticks: gps %llu/%llu rpc %llu "
               "photos %llu detections %llu files %llu/%llu\n",
               static_cast<unsigned long long>(w.tick),
               static_cast<unsigned long long>(w.mission->gps.seen),
               static_cast<unsigned long long>(w.ground->gps.seen),
               static_cast<unsigned long long>(w.ledger.calls_ok),
               static_cast<unsigned long long>(w.payload->photos),
               static_cast<unsigned long long>(w.mission->detections),
               static_cast<unsigned long long>(w.storage->files.completed),
               static_cast<unsigned long long>(w.ground->files.completed));
  return false;
}

double per(double a, double b) { return b > 0 ? a / b : 0; }

}  // namespace

void run_mission_sim(const RunOptions& opt, Report& r) {
  marea::set_log_level(marea::LogLevel::kError);
  std::unique_ptr<World> w;
  bool built = true;
  const double setup_s = median_setup_s(kSetupRepeats, [&]() {
    w.reset();
    const int64_t t0 = wall_ns();
    w = std::make_unique<World>();
    built = built && build(*w, opt.seed);
    return static_cast<double>(wall_ns() - t0) * 1e-9;
  });
  if (!built) {
    r.fail("mission_sim: discovery did not complete");
    return;
  }
  marea::mw::SimDomain& d = *w->domain;
  Ledger& l = w->ledger;

  if (!warm_up(*w)) {
    r.fail("mission_sim: not every path delivered during warm-up");
    return;
  }
  for (size_t i = 0; i < d.node_count(); ++i) d.executor(i).reset_stats();
  w->mission->gps.start_counting(l.gps_published);
  w->ground->gps.start_counting(l.gps_published);
  const size_t det_ticks = static_cast<size_t>(kDetSegments) * kTicksPerSegment;
  l.lat.event_us.reserve(det_ticks / 10);
  l.lat.rpc_ms.reserve(det_ticks / 4);
  l.lat.file_ms.reserve(det_ticks / 20);

  const SimCounters start = SimCounters::before(d);
  SimCounters det_end;
  uint64_t det_ops = 0;
  l.lat.recording = true;
  uint64_t op_base = l.attempted;
  SegmentTimes times = run_segments(
      opt, kDetSegments,
      [&]() {
        const uint64_t before = l.attempted;
        for (int t = 0; t < kTicksPerSegment; ++t) w->step();
        return l.attempted - before;
      },
      [&]() {
        det_end = SimCounters::after(d);
        det_ops = l.attempted - op_base;
        l.lat.recording = false;
      });
  // Drain: no new ops; ARQ and MFTP repair everything still in flight.
  // Fixes keep flowing (uncounted) so the last counted ones get covered.
  w->mission->gps.stop_counting(l.gps_published);
  w->ground->gps.stop_counting(l.gps_published);
  for (int i = 0; i < 1000; ++i) {
    if (i % 2 == 0) w->fcs->publish_fix(false);
    d.run_for(kTick);
  }

  // --- output checks ---
  const int64_t now_ns = d.sim().now().ns;
  w->mission->gps.cover(l.gps_published, now_ns);
  w->ground->gps.cover(l.gps_published, now_ns);  // counted tail never seen
  if (w->payload->photos != l.photos_published) {
    r.fail("mission_sim: payload got " + std::to_string(w->payload->photos) +
           "/" + std::to_string(l.photos_published) + " take_photo events");
    l.failed += l.photos_published - w->payload->photos;
  }
  if (w->mission->detections != w->payload->photos) {
    r.fail("mission_sim: mission's last detection is " +
           std::to_string(w->mission->detections) + ", payload's last photo " +
           std::to_string(w->payload->photos));
    l.failed += w->payload->photos - w->mission->detections;
  }
  if (!l.call_issued_ns.empty()) {
    r.fail("mission_sim: " + std::to_string(l.call_issued_ns.size()) +
           " echo calls never completed");
    l.failed += l.call_issued_ns.size();
  }
  uint64_t files_missing = 0;
  for (const auto& [key, rec] : l.files) {
    if (rec.done_ns[0] < 0 || rec.done_ns[1] < 0) {
      ++files_missing;
      continue;
    }
    if (rec.counted) {
      l.lat.file_ms.push_back(
          static_cast<double>(std::max(rec.done_ns[0], rec.done_ns[1]) -
                              rec.published_ns) / 1e6);
    }
  }
  if (files_missing) {
    r.fail("mission_sim: " + std::to_string(files_missing) +
           " files did not complete at both receivers");
    l.failed += files_missing;
  }
  for (const std::string& e : l.errors) r.fail("mission_sim: " + e);
  if (l.gps_stale) {
    r.fail("mission_sim: " + std::to_string(l.gps_stale) +
           " GPS fixes were neither received nor superseded within 100 ms");
  }
  r.attempted = l.attempted;
  r.failed = l.failed;

  // --- end-to-end ---
  const SimCounters det = det_end - start;
  const double n_det = static_cast<double>(det_ops);
  r.set("setup_s", setup_s);
  r.set("cpu_ns_per_op", cpu_low_decile(times.untraced_cpu_per_op));
  r.set("allocs_per_op", static_cast<double>(det.allocs) / n_det);
  r.set("wire_bytes_per_op", static_cast<double>(det.net_bytes_sent) / n_det);
  r.set("ok_ratio", 1.0 - per(static_cast<double>(l.failed),
                              static_cast<double>(l.attempted)));
  std::sort(l.lat.event_us.begin(), l.lat.event_us.end());
  std::sort(l.lat.rpc_ms.begin(), l.lat.rpc_ms.end());
  std::sort(l.lat.file_ms.begin(), l.lat.file_ms.end());
  set_p50_p99(r, "lat_p50_us", "lat_p99_us", l.lat.event_us);
  r.set("e2e.event_vlat_p99_ms", quantile_sorted(l.lat.event_us, 0.99) / 1e3);
  if (!percentile_supported(l.lat.rpc_ms.size(), 0.99)) {
    r.fail("mission_sim: too few RPC samples for p99");
  }
  r.set("e2e.rpc_vrtt_p99_ms", quantile_sorted(l.lat.rpc_ms, 0.99));
  if (!percentile_supported(l.lat.file_ms.size(), 0.5)) {
    r.fail("mission_sim: too few file samples for p50");
  }
  r.set("e2e.file_vdone_p50_ms", quantile_sorted(l.lat.file_ms, 0.5));
  r.set("e2e.latency_samples", static_cast<double>(l.lat.event_us.size()));

  // --- per layer ---
  if (opt.trace) {
    std::vector<ReplayItem> replay;
    for (uint64_t k = 0; k < 100; ++k) {
      replay.push_back({marea::enc::to_value(gps_fix_at(opt.seed, k)),
                        marea::enc::descriptor_of<GpsFix>()});
      if (k % 5 == 0) {
        replay.push_back({marea::enc::to_value(echo_at(opt.seed, k)),
                          marea::enc::descriptor_of<EchoRequest>()});
      }
    }
    report_sim_layers(r, det, det_ops, l.det_file_bytes, times, replay);
  }
}

}  // namespace perfbench
