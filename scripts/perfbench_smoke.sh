#!/usr/bin/env bash
# perfbench smoke: one short seeded run per simulated workload.
#
# perfbench/ builds its own copy of src/, and run.py exits nonzero if
# that build, its self-test or a workload's output checks fail, so a
# library change cannot silently break the benchmark. mission_sim covers
# the file path: its check compares each file's hash64 at both receivers
# against what was published.
#
# The mission_sim run is also gated on its last line: it must report
# "correct": true and lat_p99_us <= 15,000 us. The latency is virtual
# time, read over a fixed number of segments, so it is deterministic for
# a seed (seed 1 reads about 11,000 us). An event that queues behind a
# photo's MFTP chunks on the 8 Mbps egress instead of waiting for one
# chunk pushes it to about 17,000 us. Its allocs_per_op must stay at or
# below 8.92, also an exact count for the seed: seed 1 reads 8.829 at
# 5 s. What each step removed, newest first:
#   17.508  the storage.echo RPC encoded its value into a writer grown
#           from empty and copied it into a second one, the directory
#           built a key string and two provider vectors per lookup, the
#           ARQ took a map node per message and rebuilt its receive set
#           per arrival, and the health tick built an error string per
#           service per tick (now 11.414, 10.439, 9.073, 8.829 in turn);
#   17.729  each received chunk was copied into the chunk store and each
#           completed file once more for its handlers.
#
# The telemetry_sim run is gated on allocs_per_op <= 2.20. It is an
# exact count for a seed, the same at every run length: seed 1 reads
# 2.1817 (5 s runs). The health tick's error string per service per tick
# put it at 2.2384; each periodic hello rebroadcast of an unchanged
# manifest, and re-applying it at every receiver, at 3.158.
#
# Usage: scripts/perfbench_smoke.sh   (builds into $CARGO_TARGET_DIR or
# .bench_build, as run.py does)
set -euo pipefail
cd "$(dirname "$0")/.."

telemetry=$(python3 perfbench/run.py --workload telemetry_sim --seed 1 \
  --seconds 5 --trace 0 | tail -n 1)
echo "$telemetry"
mission=$(python3 perfbench/run.py --workload mission_sim --seed 1 \
  --seconds 5 --trace 0 | tail -n 1)
echo "$mission"
TELEMETRY="$telemetry" MISSION="$mission" python3 - <<'EOF'
import json, os, sys

telemetry = json.loads(os.environ["TELEMETRY"])
allocs = telemetry["metrics"]["allocs_per_op"]["value"]
if allocs > 2.20:
    sys.exit(f"perfbench smoke: telemetry_sim seed 1 allocs_per_op "
             f"{allocs:.4f} > 2.20")
print(f"perfbench smoke: telemetry_sim seed 1 allocs_per_op {allocs:.4f}")

mission = json.loads(os.environ["MISSION"])
p99 = mission["metrics"]["lat_p99_us"]["value"]
if mission.get("correct") is not True:
    sys.exit("perfbench smoke: mission_sim seed 1 is not correct")
if p99 > 15000:
    sys.exit(f"perfbench smoke: mission_sim seed 1 lat_p99_us {p99:.0f} "
             "> 15000")
allocs = mission["metrics"]["allocs_per_op"]["value"]
if allocs > 8.92:
    sys.exit(f"perfbench smoke: mission_sim seed 1 allocs_per_op "
             f"{allocs:.4f} > 8.92")
print(f"perfbench smoke: mission_sim seed 1 correct, lat_p99_us {p99:.0f}, "
      f"allocs_per_op {allocs:.4f}")
EOF
