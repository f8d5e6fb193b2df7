// Shared scaffolding of the perfbench workloads: heap-allocation
// counting, CPU clocks, exact quantiles, in-memory spans and the result
// document every run prints as its last stdout line.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

// --- heap accounting ---------------------------------------------------------
// Global operator new/delete are replaced in alloc_count.cpp; every heap
// allocation of the process bumps the global counter, and the calling
// thread's own counter (spans read the latter so concurrent threads do
// not leak into a span's allocation delta).
uint64_t allocs_total();
uint64_t allocs_this_thread();

// --- clocks ------------------------------------------------------------------
int64_t wall_ns();         // CLOCK_MONOTONIC (same clock as steady_clock)
int64_t process_cpu_ns();  // CLOCK_PROCESS_CPUTIME_ID: user+sys, all threads

// --- exact quantiles ---------------------------------------------------------
// Nearest-rank quantile over an ascending-sorted sample set: the smallest
// sample with at least q*n samples at or below it. Never interpolated and
// never bucketed.
double quantile_sorted(const std::vector<double>& sorted, double q);

// A percentile q is reportable only when at least `kTailSamples` samples
// lie beyond it, i.e. n * (1 - q) >= 10.
constexpr double kTailSamples = 10.0;
bool percentile_supported(size_t n, double q);

// Median of an unsorted list (copies; for per-segment figures).
double median_of(std::vector<double> v);

// --- CPU time on a shared host ---------------------------------------------
// The host's speed drifts with other tenants' load by more than the
// regressions worth catching. Each measured segment is therefore paired
// with a fixed calibration kernel (small allocations, a balanced tree,
// pointer chasing; no library code) run right before and after it, and
// its CPU per op is scaled to a host on which that kernel takes
// kCalibrationRefNs:  cpu_per_op * kCalibrationRefNs / calibration_ns.
constexpr double kCalibrationRefNs = 300000;
// CPU ns of one run of the calibration kernel on the calling thread.
double calibration_cpu_ns();
// Heap allocations made by calibration runs so far; allocation windows
// subtract them, so calibrating never shows in allocs_per_op.
uint64_t calibration_allocs();
// Scaled CPU per op of a segment that took `cpu_ns` for `ops` ops, with
// `calib_ns` the mean of the calibration runs around it.
inline double scaled_cpu_per_op(double cpu_ns, double ops, double calib_ns) {
  return ops > 0 && calib_ns > 0 ? cpu_ns / ops * kCalibrationRefNs / calib_ns
                                 : 0;
}
// Lower decile of per-segment CPU figures. Interference from other
// processes only ever adds CPU time to a segment, and on a shared host it
// can cover most of a run, so the lower decile tracks the program's own
// cost more steadily than the median while still moving with any change
// that affects most segments.
double cpu_low_decile(std::vector<double> v);

// --- open-loop schedule ------------------------------------------------------
// Request `seq` (0-based) of a fixed-rate open loop is due at
// start + seq * period. Latency is measured from the due time, never from
// the moment the generator managed to send, so a stall charges every
// request it delayed.
struct OpenLoopSchedule {
  int64_t start_ns = 0;
  int64_t period_ns = 1;
  int64_t due_ns(uint64_t seq) const {
    return start_ns + static_cast<int64_t>(seq) * period_ns;
  }
  int64_t latency_ns(uint64_t seq, int64_t arrival_ns) const {
    return arrival_ns - due_ns(seq);
  }
};

// --- spans -------------------------------------------------------------------
// Layers the benchmark times from outside, at the calls it makes into the
// library (PEPt split of the paper, plus the benchmark's own handlers).
enum class Layer : uint8_t {
  kToValue = 0,       // enc::to_value (Presentation, producer side)
  kFromValue,         // enc::from_value (Presentation, consumer side)
  kMiddleware,        // publish / call / publish_file (minus presentation)
  kSim,               // SimDomain::run_for minus handler spans
  kSched,             // a live executor task, minus what it calls
  kHandler,           // the benchmark's own consumer handlers
  kCount
};
const char* layer_name(Layer l);

struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t op = 0;        // op id the span belongs to
  int32_t parent = -1;    // index into the same thread's records, -1 = root
  Layer layer = Layer::kToValue;
};

struct LayerTotals {
  int64_t self_ns = 0;
  int64_t total_ns = 0;
  uint64_t self_allocs = 0;
  uint64_t count = 0;
};

// One thread's span stack. begin()/end() take explicit timestamps and
// allocation counts so the arithmetic is testable; Span below feeds them
// from the clocks. Self time = span duration minus the part covered by
// its direct children. Records are kept in a preallocated buffer (never
// grown on the measured path); spans past its capacity still count in
// the totals but are not retained.
class SpanTracer {
 public:
  explicit SpanTracer(size_t capacity = 0);
  void begin(Layer layer, uint64_t op, int64_t t_ns, uint64_t allocs);
  void end(int64_t t_ns, uint64_t allocs);

  const LayerTotals& totals(Layer l) const {
    return totals_[static_cast<size_t>(l)];
  }
  const std::vector<SpanRecord>& records() const { return records_; }
  uint64_t dropped_records() const { return dropped_; }
  size_t depth() const { return stack_size_; }
  void merge_into(LayerTotals* out) const;

 private:
  struct Open {
    int64_t start_ns;
    uint64_t start_allocs;
    int64_t child_ns;
    uint64_t child_allocs;
    int32_t record;
    Layer layer;
    uint64_t op;
  };
  static constexpr size_t kMaxDepth = 16;
  Open stack_[kMaxDepth];
  size_t stack_size_ = 0;
  std::vector<SpanRecord> records_;
  size_t capacity_ = 0;
  uint64_t dropped_ = 0;
  LayerTotals totals_[static_cast<size_t>(Layer::kCount)];
};

// Process-wide tracing switch and per-thread tracers. When tracing is off
// a Span is one relaxed load and a branch.
void tracing_enable(bool on);
bool tracing_on();
SpanTracer& thread_tracer();
// Sums every thread's totals (threads register on first use).
void collect_layer_totals(LayerTotals* out);
// Writes every thread's retained span records as TSV; returns rows written.
size_t write_spans(const std::string& path);

class Span {
 public:
  Span(Layer layer, uint64_t op) : on_(tracing_on()) {
    if (on_) thread_tracer().begin(layer, op, wall_ns(), allocs_this_thread());
  }
  ~Span() {
    if (on_) thread_tracer().end(wall_ns(), allocs_this_thread());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

// --- content hashing ---------------------------------------------------------
// Order-sensitive fold used by the output checks.
inline uint64_t fold(uint64_t h, uint64_t x) {
  h ^= x + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0xFF51AFD7ED558CCDull;
}
uint64_t fold_double(uint64_t h, double d);
uint64_t fold_string(uint64_t h, const std::string& s);

// --- the result document -----------------------------------------------------
struct MetricDef {
  const char* name;
  const char* unit;
};
// Every end-to-end metric (printed by untraced runs) and every per-layer
// metric (printed by traced runs), in BENCHMARK.json order.
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

class Report {
 public:
  void set(const std::string& name, double value);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;
  // Records a failed output check; the run then exits nonzero.
  void fail(const std::string& why);
  bool correct() const { return failures_.empty(); }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Set when the environment cannot run the workload at all (no sockets,
  // no io_uring): every metric is printed as null with this reason.
  std::string skip_reason;

  // Prints the final JSON line for `defs`; missing metrics of a workload
  // that ran are a harness bug and are reported as failures.
  void print(const std::vector<MetricDef>& defs);

 private:
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::string> failures_;
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";  // where traced runs write their spans
};

}  // namespace perfbench
