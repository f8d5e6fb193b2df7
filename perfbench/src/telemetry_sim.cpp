// telemetry_sim: one publisher, eight subscribers, zero loss, multicast.
// gps.position every 2 ms tick, payload.frame (150-1050 B) every 4th
// tick, mission.status every 50th; each subscriber takes gps.position
// plus a seeded subset of the other two. One op = one published sample.
#include <algorithm>
#include <memory>

#include "sim_common.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

struct PayloadFrame {
  uint32_t id = 0;
  std::string tag;
  std::vector<double> values;
};

}  // namespace perfbench

MAREA_REFLECT(perfbench::PayloadFrame, id, tag, values)

namespace perfbench {
namespace {

using marea::enc::Value;
using marea::services::GpsFix;
using marea::services::MissionStatus;

constexpr int kSubscribers = 8;
constexpr int kVars = 3;  // gps, frame, status
const char* const kVarNames[kVars] = {"gps.position", "payload.frame",
                                      "mission.status"};
constexpr int kTicksPerSegment = 2500;  // 5 s virtual
constexpr int kDetSegments = 2;
constexpr int kSetupRepeats = 9;
constexpr marea::Duration kTick = marea::milliseconds(2);

// Frame k (published every 4th tick): a fixed-width seeded tag and 16..128
// seeded doubles. Lengths are a seeded permutation of 16, 32, ... 128 in
// every group of 8 frames, so every seed moves the same bytes.
PayloadFrame frame_at(uint64_t seed, uint64_t k) {
  const uint64_t n_frame = k / 4;
  size_t lengths[8];
  for (int i = 0; i < 8; ++i) lengths[i] = static_cast<size_t>(16 * (i + 1));
  marea::Rng g(mix_seed(seed, 8, n_frame / 8));
  for (int i = 7; i > 0; --i) {
    std::swap(lengths[i], lengths[g.uniform(0, static_cast<uint64_t>(i))]);
  }
  marea::Rng r(mix_seed(seed, 2, k));
  PayloadFrame f;
  f.id = static_cast<uint32_t>(k);
  f.tag = "cam" + std::to_string(10000 + r.uniform(0, 89999));
  const size_t n = lengths[n_frame % 8];
  f.values.resize(n);
  for (double& v : f.values) v = r.uniform_real(-1e3, 1e3);
  return f;
}

MissionStatus status_at(uint64_t seed, uint64_t k) {
  static const char* const kPhases[] = {"init", "flying", "loiter", "rtb"};
  marea::Rng r(mix_seed(seed, 3, k));
  MissionStatus s;
  s.phase = kPhases[r.uniform(0, 3)];
  s.next_waypoint = static_cast<uint32_t>(k / 50);
  s.photos_taken = static_cast<uint32_t>(r.uniform(0, 1000));
  s.detections = static_cast<uint32_t>(r.uniform(0, 100));
  return s;
}

uint64_t hash_of(uint64_t h, const GpsFix& f) { return hash_fix(h, f); }
uint64_t hash_of(uint64_t h, const PayloadFrame& f) {
  h = fold(h, f.id);
  h = fold_string(h, f.tag);
  for (double v : f.values) h = fold_double(h, v);
  return h;
}
uint64_t hash_of(uint64_t h, const MissionStatus& s) {
  h = fold_string(h, s.phase);
  h = fold(h, s.next_waypoint);
  h = fold(h, s.photos_taken);
  return fold(h, s.detections);
}

// Per-variable publication record shared by publisher and subscribers.
struct Ledger {
  uint64_t published[kVars] = {};   // total publishes (== provider seq)
  // Provider seq at measurement start; nothing counts before it is set.
  uint64_t base_seq[kVars] = {UINT64_MAX, UINT64_MAX, UINT64_MAX};
  uint64_t counted[kVars] = {};     // publishes since measurement start
  uint64_t hash[kVars] = {};
  bool recording = false;           // latencies of deterministic segments
  std::vector<double> vlat_us;      // reserved before the window opens
  uint64_t op = 0;
};

class Source final : public marea::mw::Service {
 public:
  Source(uint64_t seed, Ledger& l) : Service("telemetry_src"), seed_(seed), l_(l) {}
  marea::Status on_start() override {
    auto a = provide_variable<GpsFix>(kVarNames[0]);
    auto b = provide_variable<PayloadFrame>(kVarNames[1]);
    auto c = provide_variable<MissionStatus>(kVarNames[2]);
    if (!a.ok()) return a.status();
    if (!b.ok()) return b.status();
    if (!c.ok()) return c.status();
    h_[0] = *a;
    h_[1] = *b;
    h_[2] = *c;
    return marea::Status::ok();
  }

  // Publishes the samples of tick k; returns how many.
  uint64_t tick(uint64_t k, bool counting) {
    uint64_t n = 0;
    n += publish(0, gps_fix_at(seed_, k), counting);
    if (k % 4 == 0) n += publish(1, frame_at(seed_, k), counting);
    if (k % 50 == 0) n += publish(2, status_at(seed_, k), counting);
    return n;
  }

 private:
  template <typename T>
  uint64_t publish(int var, const T& obj, bool counting) {
    const uint64_t op = ++l_.op;
    Value v;
    {
      Span s(Layer::kToValue, op);
      v = marea::enc::to_value(obj);
    }
    {
      Span s(Layer::kMiddleware, op);
      (void)h_[var].publish(std::move(v));
    }
    ++l_.published[var];
    if (counting) {
      ++l_.counted[var];
      l_.hash[var] = hash_of(l_.hash[var], obj);
    }
    return 1;
  }

  uint64_t seed_;
  Ledger& l_;
  marea::mw::VariableHandle h_[kVars];
};

class Sink final : public marea::mw::Service {
 public:
  Sink(int idx, const bool (&wants)[kVars], Ledger& l)
      : Service("telemetry_sink" + std::to_string(idx)), l_(l) {
    std::copy(std::begin(wants), std::end(wants), wants_);
  }
  marea::Status on_start() override {
    marea::Status s = sub<GpsFix>(0);
    if (s.is_ok() && wants_[1]) s = sub<PayloadFrame>(1);
    if (s.is_ok() && wants_[2]) s = sub<MissionStatus>(2);
    return s;
  }
  bool ready() const {
    for (int v = 0; v < kVars; ++v) {
      if (wants_[v] && seen_[v] == 0) return false;
    }
    return true;
  }
  bool wants(int v) const { return wants_[v]; }
  uint64_t count(int v) const { return count_[v]; }
  uint64_t hash(int v) const { return hash_[v]; }
  uint64_t bad() const { return bad_; }

 private:
  template <typename T>
  marea::Status sub(int var) {
    return subscribe_variable(
        kVarNames[var], marea::enc::descriptor_of<T>(),
        [this, var](const Value& v, const marea::mw::SampleInfo& info) {
          T obj{};
          bool ok = false;
          {
            Span s(Layer::kFromValue, info.seq);
            ok = marea::enc::from_value(v, obj);
          }
          Span s(Layer::kHandler, info.seq);
          ++seen_[var];
          if (!ok) {
            ++bad_;
            return;
          }
          if (info.from_snapshot || info.seq <= l_.base_seq[var]) return;
          ++count_[var];
          hash_[var] = hash_of(hash_[var], obj);
          if (l_.recording) {
            l_.vlat_us.push_back(static_cast<double>(info.latency.ns) / 1e3);
          }
        });
  }

  Ledger& l_;
  bool wants_[kVars] = {};
  uint64_t seen_[kVars] = {};
  uint64_t count_[kVars] = {};
  uint64_t hash_[kVars] = {};
  uint64_t bad_ = 0;
};

struct World {
  Ledger ledger;
  std::unique_ptr<marea::mw::SimDomain> domain;
  Source* src = nullptr;
  std::vector<Sink*> sinks;
  uint64_t tick = 0;
};

// Builds the domain and runs discovery; false when it does not complete.
bool build(World& w, uint64_t seed) {
  marea::sim::LinkParams link;
  link.latency = marea::microseconds(200);
  link.jitter = marea::microseconds(60);  // seeded per-packet draws
  w.domain = std::make_unique<marea::mw::SimDomain>(seed, link);
  auto& pub = w.domain->add_node("publisher");
  auto src = std::make_unique<Source>(seed, w.ledger);
  w.src = src.get();
  (void)pub.add_service(std::move(src));
  // Exactly half the subscribers take each optional variable; which half
  // is seeded, so every seed does the same fan-out work.
  bool takes[kVars][kSubscribers] = {};
  marea::Rng pick(mix_seed(seed, 9, 0));
  for (int v = 1; v < kVars; ++v) {
    int order[kSubscribers];
    for (int i = 0; i < kSubscribers; ++i) order[i] = i;
    for (int i = kSubscribers - 1; i > 0; --i) {
      std::swap(order[i], order[pick.uniform(0, static_cast<uint64_t>(i))]);
    }
    for (int i = 0; i < kSubscribers / 2; ++i) takes[v][order[i]] = true;
  }
  for (int i = 0; i < kSubscribers; ++i) {
    bool wants[kVars] = {true, takes[1][i], takes[2][i]};
    auto& node = w.domain->add_node("sub" + std::to_string(i));
    auto sink = std::make_unique<Sink>(i, wants, w.ledger);
    w.sinks.push_back(sink.get());
    (void)node.add_service(std::move(sink));
  }
  return start_and_discover(*w.domain, marea::seconds(2.0));
}

}  // namespace

void run_telemetry_sim(const RunOptions& opt, Report& r) {
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
    r.fail("telemetry_sim: discovery did not complete");
    return;
  }
  marea::mw::SimDomain& d = *w->domain;
  Ledger& l = w->ledger;

  // Warm-up: pool freelists, container maps and caches reach steady state.
  for (int i = 0; i < 500; ++i) {
    w->src->tick(w->tick++, false);
    d.run_for(kTick);
  }
  d.run_for(marea::milliseconds(20));  // drain in-flight samples
  for (const Sink* s : w->sinks) {
    if (!s->ready()) {
      r.fail("telemetry_sim: a subscriber never received its variables");
      return;
    }
  }
  for (int v = 0; v < kVars; ++v) l.base_seq[v] = l.published[v];
  for (size_t i = 0; i < d.node_count(); ++i) d.executor(i).reset_stats();
  l.vlat_us.reserve(static_cast<size_t>(kDetSegments) * kTicksPerSegment *
                    (kSubscribers + 8));

  const SimCounters start = SimCounters::before(d);
  SimCounters det_end;
  uint64_t det_ops = 0;
  uint64_t ops_so_far = 0;
  l.recording = true;
  SegmentTimes times = run_segments(
      opt, kDetSegments,
      [&]() {
        uint64_t ops = 0;
        for (int t = 0; t < kTicksPerSegment; ++t) {
          ops += w->src->tick(w->tick++, true);
          Span s(Layer::kSim, l.op);
          d.run_for(kTick);
        }
        ops_so_far += ops;
        return ops;
      },
      [&]() {
        det_end = SimCounters::after(d);
        det_ops = ops_so_far;
        l.recording = false;
      });
  d.run_for(marea::milliseconds(50));  // let the last samples land

  // --- output checks ---
  uint64_t failed = 0;
  for (int v = 0; v < kVars; ++v) {
    uint64_t worst_missing = 0;
    for (size_t i = 0; i < w->sinks.size(); ++i) {
      const Sink* s = w->sinks[i];
      if (!s->wants(v)) continue;
      if (s->count(v) != l.counted[v] || s->hash(v) != l.hash[v]) {
        r.fail("telemetry_sim: subscriber " + std::to_string(i) + " " +
               kVarNames[v] + " got " + std::to_string(s->count(v)) + "/" +
               std::to_string(l.counted[v]) + " samples" +
               (s->hash(v) != l.hash[v] ? " with a content mismatch" : ""));
      }
      const uint64_t missing =
          l.counted[v] > s->count(v) ? l.counted[v] - s->count(v) : 0;
      worst_missing = std::max(worst_missing, missing);
    }
    failed += worst_missing;
  }
  for (const Sink* s : w->sinks) {
    if (s->bad() != 0) r.fail("telemetry_sim: undecodable samples delivered");
  }
  r.attempted = times.ops;
  r.failed = failed;

  // --- end-to-end ---
  const SimCounters det = det_end - start;
  const double n_det = static_cast<double>(det_ops);
  r.set("setup_s", setup_s);
  r.set("cpu_ns_per_op", cpu_low_decile(times.untraced_cpu_per_op));
  r.set("allocs_per_op", static_cast<double>(det.allocs) / n_det);
  r.set("wire_bytes_per_op", static_cast<double>(det.net_bytes_sent) / n_det);
  r.set("ok_ratio", 1.0 - static_cast<double>(failed) /
                              static_cast<double>(times.ops));
  std::sort(l.vlat_us.begin(), l.vlat_us.end());
  set_p50_p99(r, "lat_p50_us", "lat_p99_us", l.vlat_us);
  set_p50_p99(r, "e2e.vlat_p50_us", "e2e.vlat_p99_us", l.vlat_us);
  r.set("e2e.latency_samples", static_cast<double>(l.vlat_us.size()));

  // --- per layer ---
  if (opt.trace) {
    std::vector<ReplayItem> replay;
    for (uint64_t k = 0; k < 200; ++k) {
      replay.push_back({marea::enc::to_value(gps_fix_at(opt.seed, k)),
                        marea::enc::descriptor_of<GpsFix>()});
      if (k % 4 == 0) {
        replay.push_back({marea::enc::to_value(frame_at(opt.seed, k)),
                          marea::enc::descriptor_of<PayloadFrame>()});
      }
      if (k % 50 == 0) {
        replay.push_back({marea::enc::to_value(status_at(opt.seed, k)),
                          marea::enc::descriptor_of<MissionStatus>()});
      }
    }
    report_sim_layers(r, det, det_ops, 0, times, replay);
  }
}

}  // namespace perfbench
