#include "harness.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

namespace perfbench {

int64_t wall_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// --- quantiles -----------------------------------------------------------------

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  double rank = std::ceil(q * n);
  if (rank < 1) rank = 1;
  if (rank > n) rank = n;
  return sorted[static_cast<size_t>(rank) - 1];
}

bool percentile_supported(size_t n, double q) {
  // Small epsilon: 1000 * (1 - 0.99) is 9.9999... in binary floating point.
  return static_cast<double>(n) * (1.0 - q) >= kTailSamples - 1e-9;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

namespace {
std::atomic<uint64_t> g_calibration_allocs{0};
}  // namespace

uint64_t calibration_allocs() {
  return g_calibration_allocs.load(std::memory_order_relaxed);
}

double calibration_cpu_ns() {
  const uint64_t a0 = allocs_this_thread();
  const int64_t c0 = process_cpu_ns();
  std::map<uint64_t, std::string> m;
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 2000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    m[x % 4096] = std::string(24 + x % 40, 'a');
    if (i % 3 == 0) m.erase(m.begin());
  }
  volatile size_t keep = m.size();
  (void)keep;
  m.clear();
  const double ns = static_cast<double>(process_cpu_ns() - c0);
  g_calibration_allocs.fetch_add(allocs_this_thread() - a0,
                                 std::memory_order_relaxed);
  return ns;
}

double cpu_low_decile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.10);
}

// --- spans ---------------------------------------------------------------------

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kToValue: return "to_value";
    case Layer::kFromValue: return "from_value";
    case Layer::kMiddleware: return "middleware";
    case Layer::kSim: return "sim";
    case Layer::kSched: return "sched";
    case Layer::kHandler: return "handler";
    case Layer::kCount: break;
  }
  return "?";
}

SpanTracer::SpanTracer(size_t capacity) : capacity_(capacity) {
  records_.reserve(capacity);
}

void SpanTracer::begin(Layer layer, uint64_t op, int64_t t_ns,
                       uint64_t allocs) {
  if (stack_size_ == kMaxDepth) return;  // deeper nesting is not traced
  int32_t rec = -1;
  if (records_.size() < capacity_) {
    rec = static_cast<int32_t>(records_.size());
    SpanRecord r;
    r.start_ns = t_ns;
    r.op = op;
    r.layer = layer;
    r.parent = stack_size_ ? stack_[stack_size_ - 1].record : -1;
    records_.push_back(r);
  } else {
    ++dropped_;
  }
  stack_[stack_size_++] = Open{t_ns, allocs, 0, 0, rec, layer, op};
}

void SpanTracer::end(int64_t t_ns, uint64_t allocs) {
  if (stack_size_ == 0) return;
  const Open o = stack_[--stack_size_];
  const int64_t dur = t_ns - o.start_ns;
  const uint64_t a = allocs - o.start_allocs;
  LayerTotals& t = totals_[static_cast<size_t>(o.layer)];
  t.total_ns += dur;
  t.self_ns += dur - o.child_ns;
  t.self_allocs += a - o.child_allocs;
  ++t.count;
  if (o.record >= 0) records_[static_cast<size_t>(o.record)].end_ns = t_ns;
  if (stack_size_) {
    stack_[stack_size_ - 1].child_ns += dur;
    stack_[stack_size_ - 1].child_allocs += a;
  }
}

void SpanTracer::merge_into(LayerTotals* out) const {
  for (size_t i = 0; i < static_cast<size_t>(Layer::kCount); ++i) {
    out[i].self_ns += totals_[i].self_ns;
    out[i].total_ns += totals_[i].total_ns;
    out[i].self_allocs += totals_[i].self_allocs;
    out[i].count += totals_[i].count;
  }
}

namespace {
std::atomic<bool> g_tracing{false};
std::mutex g_tracers_mu;
// Owned here so totals survive the threads that produced them.
std::vector<std::unique_ptr<SpanTracer>>& all_tracers() {
  static std::vector<std::unique_ptr<SpanTracer>> v;
  return v;
}
constexpr size_t kSpanCapacityPerThread = 1 << 18;
}  // namespace

void tracing_enable(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing_on() { return g_tracing.load(std::memory_order_relaxed); }

SpanTracer& thread_tracer() {
  thread_local SpanTracer* mine = nullptr;
  if (!mine) {
    auto t = std::make_unique<SpanTracer>(kSpanCapacityPerThread);
    mine = t.get();
    std::lock_guard lk(g_tracers_mu);
    all_tracers().push_back(std::move(t));
  }
  return *mine;
}

void collect_layer_totals(LayerTotals* out) {
  std::lock_guard lk(g_tracers_mu);
  for (const auto& t : all_tracers()) t->merge_into(out);
}

size_t write_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return 0;
  std::fprintf(f, "thread\tindex\tlayer\top\tparent\tstart_ns\tend_ns\n");
  size_t rows = 0;
  std::lock_guard lk(g_tracers_mu);
  for (size_t ti = 0; ti < all_tracers().size(); ++ti) {
    const auto& recs = all_tracers()[ti]->records();
    for (size_t i = 0; i < recs.size(); ++i) {
      const SpanRecord& r = recs[i];
      std::fprintf(f, "%zu\t%zu\t%s\t%llu\t%d\t%lld\t%lld\n", ti, i,
                   layer_name(r.layer), static_cast<unsigned long long>(r.op),
                   r.parent, static_cast<long long>(r.start_ns),
                   static_cast<long long>(r.end_ns));
      ++rows;
    }
  }
  std::fclose(f);
  return rows;
}

// --- hashing -------------------------------------------------------------------

uint64_t fold_double(uint64_t h, double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return fold(h, bits);
}

uint64_t fold_string(uint64_t h, const std::string& s) {
  h = fold(h, s.size());
  for (unsigned char c : s) h = fold(h, c);
  return h;
}

// --- metric catalogue ----------------------------------------------------------

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"cpu_ns_per_op", "ns"},
      {"allocs_per_op", "count"},
      {"wire_bytes_per_op", "B"},
      {"ok_ratio", "ratio"},
      {"lat_p50_us", "us"},
      {"lat_p99_us", "us"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // workload-specific end-to-end figures (see README.md)
      {"e2e.vlat_p50_us", "us"},
      {"e2e.vlat_p99_us", "us"},
      {"e2e.event_vlat_p99_ms", "ms"},
      {"e2e.rpc_vrtt_p99_ms", "ms"},
      {"e2e.file_vdone_p50_ms", "ms"},
      {"e2e.lat_p99_us_peak", "us"},
      {"e2e.max_rate_hz", "Hz"},
      {"e2e.gw_delivery_ratio", "ratio"},
      {"e2e.latency_samples", "count"},
      // Presentation + Encoding
      {"encoding.to_value_ns_per_op", "ns"},
      {"encoding.from_value_ns_per_delivery", "ns"},
      {"encoding.presentation_allocs_per_op", "count"},
      {"encoding.encode_ns", "ns"},
      {"encoding.decode_ns", "ns"},
      {"encoding.tagged_encode_ns", "ns"},
      // middleware (ServiceContainer)
      {"middleware.publish_ns_per_op", "ns"},
      {"middleware.publish_allocs_per_op", "count"},
      {"middleware.frames_received_per_op", "count"},
      {"middleware.frames_dropped", "count"},
      {"middleware.name_queries_sent", "count"},
      // Protocol
      {"protocol.frame_ns", "ns"},
      {"protocol.header_bytes_per_op", "B"},
      {"protocol.arq_retransmit_ratio", "ratio"},
      {"protocol.arq_duplicate_ratio", "ratio"},
      {"protocol.arq_acks_per_message", "count"},
      {"protocol.mftp_chunk_retransmit_ratio", "ratio"},
      {"protocol.mftp_wire_per_payload", "ratio"},
      {"protocol.mftp_dedup_ratio", "ratio"},
      {"protocol.mftp_hash_mismatches", "count"},
      // Transport
      {"transport.frames_sent_per_op", "count"},
      {"transport.recv_batches_per_op", "count"},
      {"transport.frames_per_recv_batch", "count"},
      {"transport.uring_sqe_per_op", "count"},
      {"transport.uring_cqe_batches_per_op", "count"},
      {"transport.payload_copies_per_op", "count"},
      {"transport.send_errors", "count"},
      {"transport.drops_truncated", "count"},
      // util (frame pool)
      {"util.pool_hit_ratio", "ratio"},
      {"util.pool_slab_allocs_per_op", "count"},
      // simulator
      {"sim.run_self_ns_per_op", "ns"},
      {"sim.events_per_op", "count"},
      {"sim.packets_per_op", "count"},
      {"sim.fn_heap_fallbacks_per_op", "count"},
      // scheduler
      {"sched.tasks_per_op", "count"},
      {"sched.wait_us.event", "us"},
      {"sched.wait_us.rpc", "us"},
      {"sched.wait_us.variable", "us"},
      {"sched.wait_us.file", "us"},
      {"sched.max_wait_us", "us"},
      {"sched.run_ns_per_task", "ns"},
      // services
      {"services.gateway_datagrams_per_update", "count"},
      {"services.gateway_conflated_ratio", "ratio"},
      {"services.gateway_backpressure_drops", "count"},
      {"services.handler_ns", "ns"},
      // benchmark health and tracing cost
      {"bench.gen_lag_p99_us", "us"},
      {"obs.trace_overhead", "ratio"},
      {"obs.trace_coverage", "ratio"},
  };
  return defs;
}

// --- report --------------------------------------------------------------------

void Report::set(const std::string& name, double value) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

bool Report::has(const std::string& name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) return true;
  }
  return false;
}

double Report::get(const std::string& name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) return v;
  }
  return 0;
}

void Report::fail(const std::string& why) {
  failures_.push_back(why);
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

void Report::print(const std::vector<MetricDef>& defs) {
  const bool skipped = !skip_reason.empty();
  std::string out;
  char buf[512];
  std::string metrics;
  for (const MetricDef& d : defs) {
    if (!metrics.empty()) metrics += ", ";
    if (skipped) {
      std::snprintf(buf, sizeof buf,
                    "\"%s\": {\"value\": null, \"unit\": \"%s\", "
                    "\"reason\": \"%s\"}",
                    d.name, d.unit, skip_reason.c_str());
      metrics += buf;
      continue;
    }
    double v = 0;
    if (has(d.name)) {
      v = get(d.name);
    } else if (defs.data() == end_to_end_metrics().data()) {
      fail(std::string("end-to-end metric not measured: ") + d.name);
    }
    if (!std::isfinite(v)) {
      fail(std::string("metric is not finite: ") + d.name);
      v = 0;
    }
    std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  d.name, v, d.unit);
    metrics += buf;
  }
  if (attempted == 0) attempted = 1;
  std::snprintf(buf, sizeof buf,
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  out = buf;
  out += metrics;
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace perfbench
