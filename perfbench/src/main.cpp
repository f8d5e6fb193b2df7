// perfbench: one seeded, layer-traced benchmark for the marea middleware.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Prints progress on stderr and, as the last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced run. Exits 1 when
// an output check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

uint64_t mix_seed(uint64_t seed, uint64_t stream, uint64_t k) {
  uint64_t h = fold(0x5EED, seed);
  h = fold(h, stream);
  return fold(h, k);
}

marea::services::GpsFix gps_fix_at(uint64_t seed, uint64_t k) {
  marea::Rng r(mix_seed(seed, 1, k));
  marea::services::GpsFix f;
  f.lat_deg = 37.0 + r.uniform_real(-0.5, 0.5);
  f.lon_deg = -5.9 + r.uniform_real(-0.5, 0.5);
  f.alt_m = r.uniform_real(50, 400);
  f.heading_deg = r.uniform_real(0, 360);
  f.speed_mps = r.uniform_real(10, 40);
  f.time_ns = static_cast<int64_t>(k);
  return f;
}

uint64_t hash_fix(uint64_t h, const marea::services::GpsFix& f) {
  h = fold_double(h, f.lat_deg);
  h = fold_double(h, f.lon_deg);
  h = fold_double(h, f.alt_m);
  h = fold_double(h, f.heading_deg);
  h = fold_double(h, f.speed_mps);
  return fold(h, static_cast<uint64_t>(f.time_ns));
}

void set_p50_p99(Report& r, const std::string& p50_name,
                 const std::string& p99_name,
                 const std::vector<double>& sorted, double scale) {
  if (!percentile_supported(sorted.size(), 0.99)) {
    r.fail(p99_name + ": " + std::to_string(sorted.size()) +
           " samples cannot support p99 (needs 10 beyond it)");
  }
  r.set(p50_name, quantile_sorted(sorted, 0.50) * scale);
  r.set(p99_name, quantile_sorted(sorted, 0.99) * scale);
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "telemetry_sim|mission_sim|ground_link_epoll|ground_link_uring"
               " --seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else {
      return usage();
    }
  }
  if (opt.seconds <= 0) return usage();

  perfbench::Report report;
  if (workload == "telemetry_sim") {
    perfbench::run_telemetry_sim(opt, report);
  } else if (workload == "mission_sim") {
    perfbench::run_mission_sim(opt, report);
  } else if (workload == "ground_link_epoll") {
    perfbench::run_ground_link(opt, "epoll", report);
  } else if (workload == "ground_link_uring") {
    perfbench::run_ground_link(opt, "uring", report);
  } else {
    return usage();
  }

  if (opt.trace && report.skip_reason.empty()) {
    const std::string path = opt.out_dir + "/spans-" + workload + "-" +
                             std::to_string(opt.seed) + ".tsv";
    const size_t rows = perfbench::write_spans(path);
    std::fprintf(stderr, "perfbench: wrote %zu spans to %s\n", rows,
                 path.c_str());
  }
  report.print(opt.trace ? perfbench::per_layer_metrics()
                         : perfbench::end_to_end_metrics());
  return report.correct() ? 0 : 1;
}
