// Tests of the benchmark's own arithmetic: the 10-beyond percentile rule
// and nearest-rank quantiles, span self time with nested children, and
// open-loop latency timed from the due time. Exits nonzero on failure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.h"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile_rule() {
  using perfbench::percentile_supported;
  check(!percentile_supported(999, 0.99), "999 samples do not support p99");
  check(percentile_supported(1000, 0.99), "1000 samples support p99");
  check(percentile_supported(20, 0.5), "20 samples support the median");
  check(!percentile_supported(19, 0.5), "19 samples do not");
  check(!percentile_supported(9999, 0.999), "9999 samples do not support p99.9");

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  check(near(perfbench::quantile_sorted(v, 0.5), 500), "nearest-rank p50");
  check(near(perfbench::quantile_sorted(v, 0.99), 990), "nearest-rank p99");
  check(near(perfbench::quantile_sorted(v, 1.0), 1000), "p100 is the max");
  check(near(perfbench::median_of({3, 1, 2, 10}), 2.5), "even-count median");
}

void test_span_self_time() {
  using perfbench::Layer;
  perfbench::SpanTracer t(16);
  // sim [0,100] contains handler [10,30] and middleware [40,60], which
  // itself contains to_value [45,50]. Allocation counts ride along.
  t.begin(Layer::kSim, 1, 0, 0);
  t.begin(Layer::kHandler, 1, 10, 1);
  t.end(30, 3);
  t.begin(Layer::kMiddleware, 1, 40, 3);
  t.begin(Layer::kToValue, 1, 45, 4);
  t.end(50, 6);
  t.end(60, 7);
  t.end(100, 9);
  check(t.depth() == 0, "stack unwound");
  check(t.totals(Layer::kSim).self_ns == 60, "sim self = 100 - 20 - 20");
  check(t.totals(Layer::kSim).total_ns == 100, "sim total");
  check(t.totals(Layer::kMiddleware).self_ns == 15, "middleware self = 20 - 5");
  check(t.totals(Layer::kToValue).self_ns == 5, "leaf self = duration");
  check(t.totals(Layer::kHandler).self_ns == 20, "handler self");
  check(t.totals(Layer::kSim).self_allocs == 9 - 2 - 4, "sim self allocs");
  check(t.totals(Layer::kMiddleware).self_allocs == 2, "middleware self allocs");
  const auto& recs = t.records();
  check(recs.size() == 4, "four records kept");
  check(recs[3].parent == 2 && recs[2].parent == 0 && recs[0].parent == -1,
        "parent links");
  check(recs[3].end_ns == 50, "record end stamped");

  perfbench::SpanTracer tiny(1);
  tiny.begin(Layer::kSim, 1, 0, 0);
  tiny.begin(Layer::kHandler, 1, 1, 0);
  tiny.end(2, 0);
  tiny.end(3, 0);
  check(tiny.records().size() == 1 && tiny.dropped_records() == 1,
        "records past capacity are dropped but still totalled");
  check(tiny.totals(Layer::kSim).self_ns == 2, "dropped child still subtracts");
}

void test_open_loop_latency() {
  // 1 kHz schedule; the generator stalls 10 ms before request 5 and then
  // sends 5..14 back to back. Each arrives 50 us after it was SENT.
  perfbench::OpenLoopSchedule s{1000000, 1000000};
  check(s.due_ns(0) == 1000000 && s.due_ns(5) == 6000000, "due times");
  const int64_t resume = s.due_ns(5) + 10000000;
  for (uint64_t seq = 5; seq < 15; ++seq) {
    const int64_t sent = resume + static_cast<int64_t>(seq - 5) * 1000;
    const int64_t arrival = sent + 50000;
    const int64_t lat = s.latency_ns(seq, arrival);
    check(lat == arrival - s.due_ns(seq), "latency is arrival - due");
    check(lat > arrival - sent, "stall is charged to delayed requests");
  }
  // Request 5 waited the full stall: 10 ms + 50 us.
  check(s.latency_ns(5, resume + 50000) == 10050000, "stall charged in full");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_span_self_time();
  test_open_loop_latency();
  if (g_failures) return 1;
  std::fprintf(stderr, "perfbench selftest: ok\n");
  return 0;
}
