// Hot-path datapath bench (experiment X7): what does ONE published
// variable sample cost at fan-out 8, in heap allocations and bytes
// copied, end to end through encode -> frame -> SimNetwork fan-out ->
// decode -> handler delivery?
//
// Three lenses on the same loop:
//  * a global operator-new counter (ground truth for heap allocations),
//  * the domain's metrics registry (net.payload_* counters and the shared
//    mw.var_latency_us histogram — the same instruments check.sh and the
//    flight recorder dump, so the bench doubles as an exercise of the
//    observability layer at full instrumentation),
//  * the event engine: simulator events run per sample, and closures
//    that outgrew their InlineFn buffer (each one a heap allocation;
//    the baseline gates these at zero).
//
// Output is a single JSON document on stdout; scripts/check.sh redirects
// it to BENCH_hotpath.json at the repo root, the first point of the perf
// trajectory. Latencies are virtual (simulator) time; samples/sec is
// wall time of the measured loop.
#include <chrono>
#include <cstdio>

#include "alloc_count.h"
#include "bench_util.h"
#include "middleware/domain.h"
#include "util/inline_fn.h"

namespace marea::bench {
namespace {

constexpr int kFanout = 8;
constexpr size_t kPayloadBytes = 256;
constexpr int kWarmupSamples = 200;
constexpr int kMeasuredSamples = 2000;

struct Snapshot {
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  uint64_t payload_allocs = 0;
  uint64_t payload_copies = 0;
  uint64_t payload_bytes_copied = 0;
  uint64_t bytes_sent = 0;
  uint64_t delivered = 0;
  uint64_t events = 0;
  uint64_t fn_heap_fallbacks = 0;

  // Heap counters are read strictly outside the registry collect()/reads:
  // the "before" snapshot reads them last and the "after" snapshot reads
  // them first, so the registry's own snapshot-time allocations (string
  // keys, collector refresh) never land in the measured window.
  static Snapshot before(obs::MetricsRegistry& reg) {
    reg.collect();
    Snapshot s = read_registry(reg);
    s.read_heap();
    return s;
  }
  static Snapshot after(obs::MetricsRegistry& reg) {
    Snapshot s;
    s.read_heap();
    reg.collect();
    Snapshot vals = read_registry(reg);
    vals.allocs = s.allocs;
    vals.alloc_bytes = s.alloc_bytes;
    vals.fn_heap_fallbacks = s.fn_heap_fallbacks;
    return vals;
  }

 private:
  void read_heap() {
    allocs = heap_allocs();
    alloc_bytes = heap_bytes();
    fn_heap_fallbacks = inline_fn_heap_fallback_count();
  }
  static Snapshot read_registry(const obs::MetricsRegistry& reg) {
    Snapshot s;
    s.payload_allocs = reg.counter_value("net.payload_allocs");
    s.payload_copies = reg.counter_value("net.payload_copies");
    s.payload_bytes_copied = reg.counter_value("net.payload_bytes_copied");
    s.bytes_sent = reg.counter_value("net.bytes_sent");
    s.events = reg.counter_value("sim.events_executed");
    for (int i = 0; i < kFanout; ++i) {
      s.delivered += reg.counter_value(
          "mw." + std::to_string(i + 2) + ".var_samples_received");
    }
    return s;
  }
};

int run() {
  mw::SimDomain domain(/*seed=*/42);
  auto& pub = domain.add_node("publisher");
  auto producer = std::make_unique<VarProducer>(kPayloadBytes);
  auto* producer_ptr = producer.get();
  (void)pub.add_service(std::move(producer));

  for (int i = 0; i < kFanout; ++i) {
    auto& node = domain.add_node("sub" + std::to_string(i));
    (void)node.add_service(
        std::make_unique<VarConsumer>("consumer" + std::to_string(i)));
  }

  domain.start_all();
  domain.run_for(seconds(2.0));  // discovery + subscription binding

  obs::MetricsRegistry& reg = domain.obs().metrics;
  // The domain-wide delivery-latency histogram every container records
  // into; resetting it after warm-up scopes its contents to the measured
  // loop, so mean/p99 come straight from the registry.
  obs::Histogram& var_latency = reg.histogram("mw.var_latency_us");

  // Warm-up: populates caches, the frame pool freelist, and container
  // hash maps so the measured loop sees steady state.
  for (int i = 0; i < kWarmupSamples; ++i) {
    producer_ptr->push();
    domain.run_for(milliseconds(2));
  }
  var_latency.reset();

  Snapshot before = Snapshot::before(reg);
  auto wall_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kMeasuredSamples; ++i) {
    producer_ptr->push();
    domain.run_for(milliseconds(2));
  }
  auto wall_end = std::chrono::steady_clock::now();
  Snapshot after = Snapshot::after(reg);

  uint64_t delivered = after.delivered - before.delivered;

  double wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  const double n = kMeasuredSamples;

  double mean_latency_us = var_latency.mean();
  double p99_latency_us =
      static_cast<double>(var_latency.quantile_bound(0.99));

  std::printf("{\n");
  std::printf("  \"bench\": \"hotpath\",\n");
  std::printf("  \"fanout\": %d,\n", kFanout);
  std::printf("  \"payload_bytes\": %zu,\n", kPayloadBytes);
  std::printf("  \"samples\": %d,\n", kMeasuredSamples);
  std::printf("  \"delivered_per_sample\": %.3f,\n",
              static_cast<double>(delivered) / n);
  std::printf("  \"heap_allocs_per_sample\": %.2f,\n",
              static_cast<double>(after.allocs - before.allocs) / n);
  std::printf("  \"heap_bytes_per_sample\": %.1f,\n",
              static_cast<double>(after.alloc_bytes - before.alloc_bytes) / n);
  std::printf("  \"net_payload_allocs_per_sample\": %.2f,\n",
              static_cast<double>(after.payload_allocs -
                                  before.payload_allocs) / n);
  std::printf("  \"net_payload_copies_per_sample\": %.2f,\n",
              static_cast<double>(after.payload_copies -
                                  before.payload_copies) / n);
  std::printf("  \"net_payload_bytes_copied_per_sample\": %.1f,\n",
              static_cast<double>(after.payload_bytes_copied -
                                  before.payload_bytes_copied) / n);
  std::printf("  \"wire_bytes_per_sample\": %.1f,\n",
              static_cast<double>(after.bytes_sent -
                                  before.bytes_sent) / n);
  // Four decimals: one fallback in the whole window must not print as 0.
  std::printf("  \"fn_heap_fallbacks_per_sample\": %.4f,\n",
              static_cast<double>(after.fn_heap_fallbacks -
                                  before.fn_heap_fallbacks) / n);
  std::printf("  \"sim_events_per_sample\": %.2f,\n",
              static_cast<double>(after.events - before.events) / n);
  std::printf("  \"mean_latency_us\": %.2f,\n", mean_latency_us);
  std::printf("  \"p99_latency_us\": %.2f,\n", p99_latency_us);
  std::printf("  \"samples_per_sec_wall\": %.0f\n",
              n / (wall_s > 0 ? wall_s : 1e-9));
  std::printf("}\n");

  // Sanity: every sample must actually have fanned out to all consumers,
  // otherwise the per-sample numbers are meaningless.
  if (delivered < static_cast<uint64_t>(kMeasuredSamples) * (kFanout - 1)) {
    std::fprintf(stderr, "hotpath bench: fan-out incomplete (%llu/%llu)\n",
                 static_cast<unsigned long long>(delivered),
                 static_cast<unsigned long long>(
                     static_cast<uint64_t>(kMeasuredSamples) * kFanout));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace marea::bench

int main() { return marea::bench::run(); }
