// Fleet-scaling bench: events/sec of the sharded simulation engine from
// 8 to 1024 middleware nodes, single-threaded vs one worker per core.
//
// Three layers are measured:
//  * engine_ring_events_per_sec — the raw timer-wheel engine (64
//    self-rescheduling chains, no middleware): the single-thread
//    throughput floor gated against the committed baseline so the wheel
//    never regresses below the old priority-queue engine.
//  * fleet scaling — full SimDomain deployments where every node
//    publishes a 100 Hz variable consumed by its ring neighbor, sharded
//    one shard per core (capped at 8). The same fleet runs with 1
//    worker thread and hardware_concurrency workers; conservative
//    windowing guarantees identical event counts, so speedup is pure
//    wall clock. On hosts with < 4 cores the speedup keys are emitted
//    as null with a skip reason (an environment limitation, not a perf
//    regression — scripts/bench_compare.py skips null keys). The gated
//    per-node keys (fleet256/fleet1024_eps_per_node_1t) watch the
//    scaling cliff: interest-scoped fan-out keeps per-publish work
//    bounded by interested parties, so per-node throughput must not
//    collapse as the fleet grows.
//  * net4096 smoke — 4096 network-layer endpoints (no middleware) in
//    64 multicast groups spread over 8 shards: proves group fan-out
//    touches only shards with members at 16x the middleware scale.
//
// Output: one JSON document on stdout, flat keys for the gate plus a
// per-size breakdown for EXPERIMENTS.md X9/X11. `--profile` instead
// prints a chrono phase breakdown of the n256 run (used by
// scripts/profile_fleet.sh when perf/gprofng are unavailable).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "encoding/typed.h"
#include "middleware/domain.h"
#include "sim/shard.h"
#include "sim/simulator.h"

namespace marea::bench {
namespace {

struct FleetMsg {
  int64_t n = 0;
};

}  // namespace
}  // namespace marea::bench

MAREA_REFLECT(marea::bench::FleetMsg, n)

namespace marea::bench {
namespace {

double wall_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --- raw engine throughput ----------------------------------------------

// 64 concurrent chains, each rescheduling itself with a per-chain prime
// delay: the classic ring workload the wheel's O(1) schedule/pop is for.
double engine_ring_events_per_sec() {
  sim::Simulator s;
  constexpr int kChains = 64;
  constexpr uint64_t kEvents = 2'000'000;
  uint64_t fired = 0;
  struct Chain {
    sim::Simulator* s;
    uint64_t* fired;
    Duration delay;
    void arm() const {
      Chain self = *this;
      s->after(delay, [self] {
        ++*self.fired;
        self.arm();
      });
    }
  };
  for (int i = 0; i < kChains; ++i) {
    Chain{&s, &fired, microseconds(1 + (i * 37) % 1000)}.arm();
  }
  const auto t0 = std::chrono::steady_clock::now();
  s.run(kEvents);
  const double wall = wall_seconds(t0);
  return static_cast<double>(fired) / wall;
}

// --- fleet scaling -------------------------------------------------------

class FleetBeacon final : public mw::Service {
 public:
  explicit FleetBeacon(int index)
      : Service("beacon" + std::to_string(index)), index_(index) {}

  Status on_start() override {
    auto v = provide_variable<FleetMsg>(
        "fleet." + std::to_string(index_) + ".var",
        {.period = milliseconds(10), .validity = seconds(5.0)});
    if (!v.ok()) return v.status();
    var_ = *v;
    FleetMsg m;
    m.n = 1;
    return var_.publish(m);  // period QoS keeps republishing at 100 Hz
  }

 private:
  mw::VariableHandle var_;
  int index_ = 0;
};

class FleetWatcher final : public mw::Service {
 public:
  FleetWatcher(int index, int watch)
      : Service("watch" + std::to_string(index)), watch_(watch) {}

  Status on_start() override {
    return subscribe_variable<FleetMsg>(
        "fleet." + std::to_string(watch_) + ".var",
        [this](const FleetMsg&, const mw::SampleInfo&) { ++samples_; });
  }
  int64_t samples() const { return samples_; }

 private:
  int watch_ = 0;
  int64_t samples_ = 0;
};

struct FleetRun {
  double wall_s = 0;
  uint64_t events = 0;
  int64_t samples = 0;
};

struct FleetPhases {
  double construct_s = 0;  // domain + node/service assembly
  double warmup_s = 0;     // start + discovery convergence window
  double run_s = 0;        // the timed steady-state window
};

// Per-size workload shape. The smaller fleets start every container at
// t=0 with default gossip cadence; at 1024 nodes that would be neither
// realistic nor CI-friendly — a real fleet boots staggered, and
// full-mesh 100 ms heartbeats don't survive past a few hundred peers —
// so the n1024 stage boots in batches and stretches the gossip periods.
// The gated per-node key still measures the same datapath: publish,
// fan-out, deliver, handle.
struct StageSpec {
  int nodes = 0;
  uint32_t shards = 8;
  Duration sim_time = seconds(1.0);  // timed steady-state window
  Duration warmup = seconds(1.0);    // discovery convergence; not timed
  int start_batch = 0;               // 0 = all containers start at t=0
  Duration start_gap = milliseconds(10);  // virtual gap between batches
  Duration heartbeat = kDurationZero;     // 0 = container default
  Duration announce = kDurationZero;      // 0 = container default
};

StageSpec spec_for(int nodes) {
  StageSpec s;
  s.nodes = nodes;
  s.shards = static_cast<uint32_t>(nodes < 8 ? nodes : 8);
  if (nodes <= 64) {
    s.sim_time = seconds(10.0);
  } else if (nodes <= 256) {
    // Broadcast gossip makes per-sim-second event counts grow with
    // fleet size; shorten the virtual horizon to keep the sweep
    // CI-friendly without changing the steady-state workload.
    s.sim_time = seconds(2.0);
  } else {
    s.sim_time = milliseconds(250);
    s.warmup = milliseconds(500);
    s.start_batch = 64;
    s.heartbeat = milliseconds(500);
    s.announce = seconds(2.0);
  }
  return s;
}

FleetRun run_fleet(const StageSpec& spec, uint32_t threads,
                   FleetPhases* phases = nullptr) {
  set_log_level(LogLevel::kError);
  const bool dump_stats = std::getenv("FLEET_DUMP_STATS") != nullptr;
  const auto tc = std::chrono::steady_clock::now();
  mw::SimDomain domain(/*seed=*/5, {},
                       mw::ShardOptions{.shards = spec.shards,
                                        .threads = threads});
  mw::ContainerConfig cfg;
  if (spec.heartbeat.ns > 0) cfg.heartbeat_interval = spec.heartbeat;
  if (spec.announce.ns > 0) cfg.announce_interval = spec.announce;
  std::vector<FleetWatcher*> watchers;
  for (int i = 0; i < spec.nodes; ++i) {
    auto& node = domain.add_node("n" + std::to_string(i), cfg);
    (void)node.add_service(std::make_unique<FleetBeacon>(i));
    auto w = std::make_unique<FleetWatcher>(i, (i + 1) % spec.nodes);
    watchers.push_back(w.get());
    (void)node.add_service(std::move(w));
  }
  if (phases) phases->construct_s = wall_seconds(tc);

  const auto tw = std::chrono::steady_clock::now();
  Duration settle = spec.warmup;
  if (spec.start_batch <= 0) {
    domain.start_all();
  } else {
    // Staggered boot: each batch's hello storm drains before the next
    // batch joins, so discovery backlog stays bounded by batch size
    // instead of fleet size.
    for (int base = 0; base < spec.nodes; base += spec.start_batch) {
      const int end = std::min(base + spec.start_batch, spec.nodes);
      for (int i = base; i < end; ++i) {
        Status s = domain.container(static_cast<size_t>(i)).start();
        if (!s.is_ok()) std::abort();
      }
      domain.run_for(spec.start_gap);
      if (settle.ns > spec.start_gap.ns) settle = settle - spec.start_gap;
    }
  }
  if (dump_stats) {
    // Diagnostic mode: advance the settle window in chunks and report
    // where time and backlog go (stderr, never part of the JSON).
    for (int c = 0; c < 10; ++c) {
      domain.run_for(Duration{settle.ns / 10});
      uint64_t sent = 0, delivered = 0, unroutable = 0;
      for (uint32_t k = 0; k < domain.shard_count(); ++k) {
        const sim::TrafficStats& t = domain.grid().cell(k).net.stats();
        sent += t.packets_sent;
        delivered += t.packets_delivered;
        unroutable += t.packets_unroutable;
      }
      std::fprintf(stderr, "  pkts sent=%llu delivered=%llu unroutable=%llu\n",
                   static_cast<unsigned long long>(sent),
                   static_cast<unsigned long long>(delivered),
                   static_cast<unsigned long long>(unroutable));
      uint64_t scheduled = 0, fired = 0, cancelled = 0, queued = 0;
      for (uint32_t k = 0; k < domain.shard_count(); ++k) {
        const sim::TimerWheelStats& w =
            domain.grid().cell(k).sim.engine_stats();
        scheduled += w.scheduled;
        fired += w.fired;
        cancelled += w.cancelled;
      }
      for (size_t i = 0; i < domain.node_count(); ++i) {
        queued += domain.executor(i).queued();
      }
      std::fprintf(stderr,
                   "settle %d/10: wall=%.1fs sched=%llu fired=%llu "
                   "cancelled=%llu pending=%llu exec_queued=%llu\n",
                   c + 1, wall_seconds(tw),
                   static_cast<unsigned long long>(scheduled),
                   static_cast<unsigned long long>(fired),
                   static_cast<unsigned long long>(cancelled),
                   static_cast<unsigned long long>(scheduled - fired -
                                                   cancelled),
                   static_cast<unsigned long long>(queued));
    }
  } else {
    domain.run_for(settle);  // discovery converges; not timed
  }
  if (phases) phases->warmup_s = wall_seconds(tw);

  const uint64_t events_before = domain.grid().events_executed_total();
  const auto t0 = std::chrono::steady_clock::now();
  domain.run_for(spec.sim_time);
  FleetRun r;
  r.wall_s = wall_seconds(t0);
  if (phases) phases->run_s = r.wall_s;
  r.events = domain.grid().events_executed_total() - events_before;
  for (auto* w : watchers) r.samples += w->samples();
  return r;
}

// --- network-layer smoke at 4096 endpoints -------------------------------

// No middleware (a 4096-container hello storm is O(N^2) and belongs to a
// soak, not a bench): raw ShardGrid with 4096 nodes in 64 multicast
// groups over 8 shards, one 1 kHz publisher per group. Interest-scoped
// fan-out means each publish touches only the shards its group spans.
FleetRun run_net_smoke(int nodes, uint32_t shards, int groups,
                       Duration sim_time) {
  sim::ShardGrid grid(shards, /*seed=*/11);
  std::vector<sim::NodeId> ids;
  ids.reserve(nodes);
  for (int i = 0; i < nodes; ++i) {
    ids.push_back(grid.add_node("s" + std::to_string(i),
                                static_cast<uint32_t>(i) % shards));
  }
  int64_t received = 0;
  for (int i = 0; i < nodes; ++i) {
    const uint32_t shard = static_cast<uint32_t>(i) % shards;
    Address ep{ids[i], 9};
    auto s = grid.cell(shard).net.join_group(
        static_cast<GroupId>(i % groups), ep);
    if (!s.is_ok()) std::abort();
    s = grid.cell(shard).net.bind_frames(
        ep, [&received](Address, const SharedFrame&) { ++received; });
    if (!s.is_ok()) std::abort();
  }
  // One publisher per group (the group's first member), self-rescheduling
  // at 1 kHz on its owner shard's simulator.
  Buffer payload(64, 0xA5);
  struct Pub {
    sim::ShardGrid* grid;
    uint32_t shard;
    Address from;
    GroupId group;
    const Buffer* payload;
    void arm() const {
      Pub self = *this;
      grid->cell(shard).sim.after(milliseconds(1), [self] {
        sim::SimNetwork& net = self.grid->cell(self.shard).net;
        (void)net.send_multicast(self.from, self.group,
                                 net.frame_pool().copy_in(*self.payload));
        self.arm();
      });
    }
  };
  for (int g = 0; g < groups; ++g) {
    Pub{&grid, static_cast<uint32_t>(g) % shards,
        Address{ids[g], 1}, static_cast<GroupId>(g), &payload}
        .arm();
  }
  const auto t0 = std::chrono::steady_clock::now();
  grid.run_for(sim_time, /*threads=*/1);
  FleetRun r;
  r.wall_s = wall_seconds(t0);
  r.events = grid.events_executed_total();
  r.samples = received;
  return r;
}

}  // namespace
}  // namespace marea::bench

int main(int argc, char** argv) {
  using namespace marea;
  using namespace marea::bench;

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  if (argc > 1 && std::strcmp(argv[1], "--profile") == 0) {
    // Chrono-based phase breakdown of the n256 run for hosts without
    // perf/gprofng (see scripts/profile_fleet.sh). Not a gated output.
    FleetPhases ph;
    FleetRun r = run_fleet(spec_for(256), /*threads=*/1, &ph);
    std::printf("{\n  \"bench\": \"fleet-profile\",\n");
    std::printf("  \"nodes\": 256,\n");
    std::printf("  \"construct_s\": %.4f,\n", ph.construct_s);
    std::printf("  \"warmup_s\": %.4f,\n", ph.warmup_s);
    std::printf("  \"run_s\": %.4f,\n", ph.run_s);
    std::printf("  \"events\": %llu,\n",
                static_cast<unsigned long long>(r.events));
    std::printf("  \"events_per_sec_1t\": %.0f\n}\n",
                static_cast<double>(r.events) / r.wall_s);
    return 0;
  }

  // `--only nN` / `--only net4096`: run a single stage and print its raw
  // numbers — a profiling aid, not a gated output.
  if (argc > 2 && std::strcmp(argv[1], "--only") == 0) {
    FleetRun r;
    if (std::strcmp(argv[2], "net4096") == 0) {
      r = run_net_smoke(4096, /*shards=*/8, /*groups=*/64, milliseconds(100));
    } else {
      r = run_fleet(spec_for(std::atoi(argv[2] + 1)), /*threads=*/1);
    }
    std::printf("{\"stage\": \"%s\", \"events\": %llu, \"samples\": %lld, "
                "\"wall_s\": %.4f, \"events_per_sec\": %.0f}\n",
                argv[2], static_cast<unsigned long long>(r.events),
                static_cast<long long>(r.samples), r.wall_s,
                static_cast<double>(r.events) / r.wall_s);
    return 0;
  }

  const double engine_eps = engine_ring_events_per_sec();

  const int kSizes[] = {8, 64, 256, 1024};
  struct SizeResult {
    int nodes;
    uint32_t shards;
    FleetRun one;
    FleetRun multi;
    bool have_multi;
  };
  std::vector<SizeResult> results;
  for (int n : kSizes) {
    const StageSpec spec = spec_for(n);
    SizeResult sr;
    sr.nodes = n;
    sr.shards = spec.shards;
    sr.one = run_fleet(spec, /*threads=*/1);
    // A multi-threaded pass only means something with real cores; at
    // n1024 the single-threaded pass is already the gated signal and
    // the horizon is short, so skip the second pass there.
    sr.have_multi = hw >= 2 && n <= 256;
    if (sr.have_multi) {
      sr.multi = run_fleet(spec, /*threads=*/hw);
    }
    results.push_back(sr);
  }

  const FleetRun smoke =
      run_net_smoke(4096, /*shards=*/8, /*groups=*/64, milliseconds(100));

  bool deterministic = true;
  const SizeResult* f64 = nullptr;
  const SizeResult* f256 = nullptr;
  const SizeResult* f1024 = nullptr;
  for (const auto& sr : results) {
    if (sr.have_multi && sr.multi.events != sr.one.events) {
      deterministic = false;
    }
    if (sr.nodes == 64) f64 = &sr;
    if (sr.nodes == 256) f256 = &sr;
    if (sr.nodes == 1024) f1024 = &sr;
  }

  const bool speedup_ok = hw >= 4;
  std::printf("{\n  \"bench\": \"fleet\",\n");
  std::printf("  \"hardware_concurrency\": %u,\n", hw);
  std::printf("  \"engine_ring_events_per_sec\": %.0f,\n", engine_eps);
  std::printf("  \"fleet\": {\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& sr = results[i];
    std::printf("    \"n%d\": {\n", sr.nodes);
    std::printf("      \"shards\": %u,\n", sr.shards);
    std::printf("      \"events\": %llu,\n",
                static_cast<unsigned long long>(sr.one.events));
    std::printf("      \"samples\": %lld,\n",
                static_cast<long long>(sr.one.samples));
    std::printf("      \"wall_s_1t\": %.4f,\n", sr.one.wall_s);
    std::printf("      \"events_per_sec_1t\": %.0f",
                static_cast<double>(sr.one.events) / sr.one.wall_s);
    if (sr.have_multi) {
      std::printf(",\n      \"wall_s_mt\": %.4f,\n", sr.multi.wall_s);
      std::printf("      \"events_per_sec_mt\": %.0f,\n",
                  static_cast<double>(sr.multi.events) / sr.multi.wall_s);
      std::printf("      \"speedup\": %.3f\n", sr.one.wall_s / sr.multi.wall_s);
    } else {
      std::printf("\n");
    }
    std::printf("    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::printf("  },\n");
  std::printf("  \"net4096\": {\n");
  std::printf("    \"shards\": 8,\n    \"groups\": 64,\n");
  std::printf("    \"events\": %llu,\n",
              static_cast<unsigned long long>(smoke.events));
  std::printf("    \"deliveries\": %lld,\n",
              static_cast<long long>(smoke.samples));
  std::printf("    \"wall_s_1t\": %.4f,\n", smoke.wall_s);
  std::printf("    \"events_per_sec_1t\": %.0f\n  },\n",
              static_cast<double>(smoke.events) / smoke.wall_s);
  // Flat keys for scripts/bench_compare.py gates. The per-node keys are
  // the anti-cliff gates: events/sec-per-node must stay within the
  // committed floor as the fleet grows.
  std::printf("  \"fleet64_events_per_sec_1t\": %.0f,\n",
              static_cast<double>(f64->one.events) / f64->one.wall_s);
  std::printf("  \"fleet256_eps_per_node_1t\": %.0f,\n",
              static_cast<double>(f256->one.events) / f256->one.wall_s / 256);
  std::printf("  \"fleet1024_eps_per_node_1t\": %.0f,\n",
              static_cast<double>(f1024->one.events) / f1024->one.wall_s /
                  1024);
  std::printf("  \"net4096_events_per_sec_1t\": %.0f,\n",
              static_cast<double>(smoke.events) / smoke.wall_s);
  if (speedup_ok) {
    std::printf("  \"fleet64_speedup\": %.3f,\n",
                f64->one.wall_s / f64->multi.wall_s);
  } else {
    std::printf("  \"fleet64_speedup\": null,\n");
    std::printf("  \"speedup_skip_reason\": "
                "\"only %u hardware thread(s); speedup needs >= 4\",\n",
                hw);
  }
  std::printf("  \"deterministic\": %s\n}\n", deterministic ? "true" : "false");
  return deterministic ? 0 : 1;
}
