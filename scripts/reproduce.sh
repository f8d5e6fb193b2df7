#!/usr/bin/env bash
# One-shot reproduction: build the way tier-1 does, run the full test
# suite, every example and the experiment benches; tee the evaluation
# outputs next to the repo root (test_output.txt / bench_output.txt), as
# EXPERIMENTS.md references. The paper's claims report lands in
# BENCH_claims.json and is gated against bench/baselines/claims.json.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j"$(nproc)"

echo "== tests =="
ctest --test-dir build -j"$(nproc)" 2>&1 | tee test_output.txt

echo "== examples =="
for e in quickstart image_mission telemetry_bridge failover_mission \
         replan_mission live_udp_demo; do
  echo "--- examples/$e ---"
  ./build/examples/"$e" >/dev/null && echo "OK" || echo "FAILED ($e)"
done

echo "== benches =="
./build/bench/bench_claims > BENCH_claims.json
./build/bench/bench_wire_codec > BENCH_wire_codec.json
cat BENCH_claims.json BENCH_wire_codec.json > bench_output.txt
for b in bench_chaos_recovery bench_hotpath bench_live bench_fleet \
         bench_scenario_matrix bench_file_transfer bench_gateway; do
  echo "=== $b ===" | tee -a bench_output.txt
  ./build/bench/"$b" 2>&1 | tee -a bench_output.txt
done
python3 scripts/bench_compare.py bench/baselines/claims.json \
  BENCH_claims.json

echo "done: see test_output.txt, bench_output.txt and BENCH_claims.json"
