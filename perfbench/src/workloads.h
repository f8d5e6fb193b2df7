// The four workloads; each fills `report` and returns normally, recording
// failed output checks in the report (the caller turns them into a
// nonzero exit).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "services/messages.h"

namespace perfbench {

void run_telemetry_sim(const RunOptions& opt, Report& report);
void run_mission_sim(const RunOptions& opt, Report& report);
// `backend` is "epoll" or "uring".
void run_ground_link(const RunOptions& opt, const std::string& backend,
                     Report& report);

// Seeded stream of positions shared by the workloads: sample k of seed s
// is always the same fix.
marea::services::GpsFix gps_fix_at(uint64_t seed, uint64_t k);
uint64_t hash_fix(uint64_t h, const marea::services::GpsFix& f);
// Per-(seed, stream, index) generator seed.
uint64_t mix_seed(uint64_t seed, uint64_t stream, uint64_t k);

// Fills the percentile pair of a latency population (`sorted` ascending);
// fails the run when the population cannot support the p99 rule.
void set_p50_p99(Report& r, const std::string& p50_name,
                 const std::string& p99_name,
                 const std::vector<double>& sorted, double scale = 1.0);

}  // namespace perfbench
