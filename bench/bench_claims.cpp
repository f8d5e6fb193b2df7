// The paper's claims as one deterministic report: runs every virtual-time
// experiment (C1-C3, C5, F2/C6, C7-C10, F3, A1-A3) in a fixed order and
// prints their flat "<id>.<point>.<metric>" keys as one JSON document.
// Everything reported is virtual time or a count, so two runs print the
// same bytes. bench/baselines/claims.json gates each claim's shape
// through scripts/bench_compare.py (ctest BenchClaims.Gate).
//
//   ./build/bench/bench_claims > BENCH_claims.json
#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace marea::bench;
  marea::set_log_level(marea::LogLevel::kError);
  Report report;
  primitives_latency(report);
  variable_fanout(report);
  event_reliability(report);
  file_late_join(report);
  local_bypass(report);
  rpc_failover(report);
  name_resolution(report);
  scheduler_priority(report);
  comm_models(report);
  scenario(report);
  ablation(report);

  // A ratio over zero would print inf or nan, which is not JSON: the gate
  // then fails loudly instead of judging a broken claim.
  std::printf("{\n  \"bench\": \"claims\"");
  for (const auto& [key, value] : report) {
    std::printf(",\n  \"%s\": %.10g", key.c_str(), value);
  }
  std::printf("\n}\n");
  return 0;
}
