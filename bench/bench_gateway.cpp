// Gateway fan-out bench (experiment X13): how much does ONE telemetry
// update cost when a ground-station gateway terminates it and fans it
// out to an external subscriber population of 1k / 10k / 100k endpoints?
//
// Three questions, each gated against bench/baselines/gateway.json:
//   * allocations — the fan-out path (publish -> shard pass -> batched
//     sendmmsg) must stay at ZERO heap allocations per update at 10k
//     subscribers; everything is preallocated at add_subscriber time;
//   * latency — wall time from publish() until every shard drained
//     (wait_idle), i.e. the freshness bound an external dashboard sees;
//   * conflation — a burst published faster than the shards can drain
//     must collapse onto the newest value (conflated > 0), never queue.
//
// External subscribers here are a handful of real loopback UDP sockets
// shared round-robin by every logical endpoint: the send-path work per
// subscriber (watermarks, batch assembly, sendmmsg) is identical, and the
// kernel handles duplicate destinations without inventing traffic.
// Environments that forbid sockets get {"skipped": true} and exit 0.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "services/gateway_service.h"
#include "transport/live_transport.h"

namespace marea::bench {
namespace {

using services::GatewayFanout;
using services::GatewayFanoutOptions;
using transport::LiveTransport;
using transport::TransportBackend;
using transport::TransportConfig;

constexpr size_t kPayloadBytes = 128;  // one encoded telemetry update
constexpr size_t kShards = 4;
constexpr size_t kSinks = 4;
constexpr int kWarmupUpdates = 10;

struct SinkSet {
  std::vector<int> fds;
  std::vector<transport::Address> addrs;

  bool open(transport::HostId host) {
    for (size_t i = 0; i < kSinks; ++i) {
      int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
      if (fd < 0) return false;
      // The bench measures the SEND path; sinks only have to be real,
      // routable endpoints. A deep receive buffer absorbs bursts, and
      // whatever overflows is dropped by the kernel at no sender cost.
      int rcvbuf = 4 << 20;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
      sockaddr_in a{};
      a.sin_family = AF_INET;
      a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0) {
        ::close(fd);
        return false;
      }
      socklen_t len = sizeof a;
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len) != 0) {
        ::close(fd);
        return false;
      }
      fds.push_back(fd);
      addrs.push_back({host, ntohs(a.sin_port)});
    }
    return true;
  }
  void drain() {
    uint8_t buf[2048];
    for (int fd : fds) {
      while (::recv(fd, buf, sizeof buf, 0) > 0) {
      }
    }
  }
  ~SinkSet() {
    for (int fd : fds) ::close(fd);
  }
};

SharedFrame make_update(LiveTransport& egress) {
  FrameLease lease = egress.frame_pool().acquire(kPayloadBytes);
  lease.buffer().assign(kPayloadBytes, 0x7E);
  return std::move(lease).freeze();
}

struct SweepResult {
  double mean_us = 0;
  double max_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double allocs_per_update = 0;
  double datagrams_per_update = 0;
  uint64_t drops = 0;
};

// Nearest-rank on a sorted sample set: exact (not bucketed), matching
// how a dashboard would compute tail freshness from raw samples.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

SweepResult run_sweep(LiveTransport& egress, SinkSet& sinks, size_t subs,
                      int updates) {
  GatewayFanoutOptions o;
  o.shards = kShards;
  o.max_topics = 4;
  GatewayFanout fan({&egress}, o);
  for (size_t i = 0; i < subs; ++i) {
    fan.add_subscriber(sinks.addrs[i % sinks.addrs.size()], 0x1);
  }

  for (int i = 0; i < kWarmupUpdates; ++i) {
    fan.publish(0, make_update(egress));
    fan.wait_idle();
  }
  sinks.drain();

  // Preallocated before the alloc-count window opens: recording a
  // latency sample must not show up as a fan-out path allocation.
  std::vector<double> lat;
  lat.reserve(static_cast<size_t>(updates));

  GatewayFanout::Stats s0 = fan.stats();
  const uint64_t allocs0 = heap_allocs();
  double total_us = 0;
  double max_us = 0;
  for (int i = 0; i < updates; ++i) {
    SharedFrame frame = make_update(egress);
    auto t0 = std::chrono::steady_clock::now();
    fan.publish(0, std::move(frame));
    fan.wait_idle();
    double us = std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    total_us += us;
    if (us > max_us) max_us = us;
    lat.push_back(us);
  }
  const uint64_t allocs1 = heap_allocs();
  GatewayFanout::Stats s1 = fan.stats();

  std::sort(lat.begin(), lat.end());
  SweepResult r;
  r.mean_us = total_us / updates;
  r.max_us = max_us;
  r.p50_us = quantile(lat, 0.50);
  r.p99_us = quantile(lat, 0.99);
  r.p999_us = quantile(lat, 0.999);
  r.allocs_per_update =
      static_cast<double>(allocs1 - allocs0) / static_cast<double>(updates);
  r.datagrams_per_update = static_cast<double>(s1.datagrams - s0.datagrams) /
                           static_cast<double>(updates);
  r.drops = s1.backpressure_drops - s0.backpressure_drops;
  sinks.drain();
  return r;
}

// Publishes a burst far faster than 10k-subscriber passes can drain:
// the depth-1 slots must conflate (freshest wins), never queue.
uint64_t run_burst(LiveTransport& egress, SinkSet& sinks, size_t subs,
                   int burst) {
  GatewayFanoutOptions o;
  o.shards = kShards;
  o.max_topics = 4;
  GatewayFanout fan({&egress}, o);
  for (size_t i = 0; i < subs; ++i) {
    fan.add_subscriber(sinks.addrs[i % sinks.addrs.size()], 0x1);
  }
  for (int i = 0; i < kWarmupUpdates; ++i) {
    fan.publish(0, make_update(egress));
    fan.wait_idle();
  }
  for (int i = 0; i < burst; ++i) fan.publish(0, make_update(egress));
  fan.wait_idle();
  sinks.drain();
  return fan.stats().conflated;
}

int run(TransportBackend backend) {
  const char* backend_name =
      backend == TransportBackend::kUring ? "uring" : "epoll";
  if (backend == TransportBackend::kUring &&
      !transport::uring_supported()) {
    std::printf("{\n  \"bench\": \"gateway\",\n  \"skipped\": true,\n"
                "  \"reason\": \"io_uring unsupported on this kernel\"\n}\n");
    return 0;
  }
  std::unique_ptr<LiveTransport> egress;
  SinkSet sinks;
  try {
    TransportConfig config;
    config.backend = backend;
    egress = transport::make_live_transport("127.0.0.1", config);
  } catch (const std::exception& e) {
    std::printf("{\n  \"bench\": \"gateway\",\n  \"skipped\": true,\n"
                "  \"reason\": \"%s\"\n}\n", e.what());
    return 0;
  }
  if (!sinks.open(transport::ipv4_host("127.0.0.1"))) {
    std::printf("{\n  \"bench\": \"gateway\",\n  \"skipped\": true,\n"
                "  \"reason\": \"sink sockets unavailable\"\n}\n");
    return 0;
  }

  SweepResult r1k = run_sweep(*egress, sinks, 1000, 100);
  SweepResult r10k = run_sweep(*egress, sinks, 10000, 50);
  SweepResult r100k = run_sweep(*egress, sinks, 100000, 10);
  uint64_t burst_conflated = run_burst(*egress, sinks, 10000, 200);

  auto print_tier = [](const char* tier, const SweepResult& r) {
    std::printf("  \"%s_fanout_mean_us\": %.1f,\n", tier, r.mean_us);
    std::printf("  \"%s_fanout_p50_us\": %.1f,\n", tier, r.p50_us);
    std::printf("  \"%s_fanout_p99_us\": %.1f,\n", tier, r.p99_us);
    std::printf("  \"%s_fanout_p999_us\": %.1f,\n", tier, r.p999_us);
    std::printf("  \"%s_fanout_max_us\": %.1f,\n", tier, r.max_us);
    std::printf("  \"%s_allocs_per_update\": %.2f,\n", tier,
                r.allocs_per_update);
    std::printf("  \"%s_datagrams_per_update\": %.1f,\n", tier,
                r.datagrams_per_update);
  };
  std::printf("{\n");
  std::printf("  \"bench\": \"gateway\",\n");
  std::printf("  \"backend\": \"%s\",\n", backend_name);
  std::printf("  \"shards\": %zu,\n", kShards);
  std::printf("  \"sink_sockets\": %zu,\n", kSinks);
  std::printf("  \"payload_bytes\": %zu,\n", kPayloadBytes);
  print_tier("gw1k", r1k);
  print_tier("gw10k", r10k);
  print_tier("gw100k", r100k);
  std::printf("  \"backpressure_drops\": %llu,\n",
              static_cast<unsigned long long>(r1k.drops + r10k.drops +
                                              r100k.drops));
  std::printf("  \"burst_conflated\": %llu\n",
              static_cast<unsigned long long>(burst_conflated));
  std::printf("}\n");

  // Sanity: outside the burst leg, every interested subscriber must have
  // been handed every update (minus explicitly counted drops).
  const double floor10k = 10000.0 * 0.98;
  if (r10k.datagrams_per_update + r10k.drops / 50.0 < floor10k) {
    std::fprintf(stderr,
                 "gateway bench: 10k sweep lost updates silently "
                 "(%.1f datagrams/update, %llu drops)\n",
                 r10k.datagrams_per_update,
                 static_cast<unsigned long long>(r10k.drops));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace marea::bench

int main(int argc, char** argv) {
  marea::transport::TransportBackend backend =
      marea::transport::TransportBackend::kEpoll;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    std::string value;
    if (a.rfind("--backend=", 0) == 0) {
      value = a.substr(10);
    } else if (a == "--backend" && i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_gateway [--backend epoll|uring]\n");
      return 2;
    }
    if (!marea::transport::parse_backend(value, &backend) ||
        backend == marea::transport::TransportBackend::kAuto) {
      std::fprintf(stderr, "bench_gateway: --backend must be epoll|uring\n");
      return 2;
    }
  }
  return marea::bench::run(backend);
}
