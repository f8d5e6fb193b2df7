#!/usr/bin/env bash
# Tier-1 gate: a plain build+test pass, the same suite under
# AddressSanitizer + UBSan (-DMAREA_SANITIZE=ON), and the
# thread-exercising tests under ThreadSanitizer (-DMAREA_SANITIZE=TSAN —
# the sharded simulation engine runs shard windows on a worker pool, and
# both live-transport backends share one locked socket table between
# their dispatch thread and caller threads, so TSan is the cheapest way
# to catch data races there). The chaos
# soak drives the middleware through loss bursts, partitions, and
# crash/restart cycles, so a sanitized run of the suite is the cheapest
# way to catch lifetime bugs in the recovery paths. Both full ctest
# passes include BenchClaims.Gate: the deterministic bench_claims report
# of the paper's claims (C1-C3, C5, F2/C6, C7-C10, F3, A1-A3) gated
# against bench/baselines/claims.json. The perfbench smoke
# (scripts/perfbench_smoke.sh) runs each simulated workload once and
# gates mission_sim seed 1 on "correct", lat_p99_us <= 15 ms and
# allocs_per_op <= 8.92, and telemetry_sim seed 1 on allocs_per_op <=
# 2.20. Finally
# the Release benches run — bench_hotpath (sim datapath), bench_live (kernel
# datapath), bench_fleet (sharded engine scaling), bench_scenario_matrix
# (seeded missions over the mobility-driven radio model),
# bench_file_transfer (content-addressed MFTP: compression, dedup,
# republish, loss sweep), bench_gateway (ground-station fan-out to
# 1k/10k/100k external subscribers) — and scripts/bench_compare.py gates
# each against its committed baseline
# (bench/baselines/{hotpath,live,fleet,scenario,filetransfer,gateway}.json).
# The CI workflow (.github/workflows/ci.yml) runs these same legs as a
# matrix, plus a dedicated multiprocess job (the marea-node 3-process
# smoke under ASan, flight-recorder dumps uploaded on failure) and a
# weekly scheduled soak (chaos_soak_test repeated and the scenario
# matrix at 10x seeds) off the PR path. The plain and sanitized ctest
# passes here already include the multiproc suite.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== plain build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

echo "== sanitized build + ctest (ASan+UBSan) =="
cmake -B build-asan -S . -DMAREA_SANITIZE=ON >/dev/null
cmake --build build-asan -j"$(nproc)"
ctest --test-dir build-asan --output-on-failure -j"$(nproc)"

echo "== ASan: live stack x30 + timer, RPC and file-progress lifetime =="
# Container teardown races the executor's threads: one pass of the live
# stack can miss a use-after-free that thirty rarely do, and the lifetime
# test destroys a container under a re-arming service timer 1,000 times,
# and another inside its requirement-check grace window.
# The RPC lifetime test kills a node while calls wait for its CPU; the
# file one unsubscribes a container's last service from a progress
# handler, inside the MFTP receiver's own chunk handling.
./build-asan/tests/live_stack_test --gtest_repeat=30 --gtest_brief=1
./build-asan/tests/service_timer_test
./build-asan/tests/middleware_rpc_test --gtest_filter='RpcProvisionLifetime.*'
./build-asan/tests/middleware_files_test \
  --gtest_filter='FileProgressLifetime.*'

echo "== TSan build + parallel-engine and live-transport tests =="
cmake -B build-tsan -S . -DMAREA_SANITIZE=TSAN >/dev/null
cmake --build build-tsan -j"$(nproc)" --target parallel_sim_test \
  chaos_soak_test radio_relay_test chunk_pipeline_test transport_test \
  live_soak_test live_stack_test service_timer_test middleware_rpc_test \
  middleware_files_test
ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
  -R 'ParallelSim|ChaosSoak|DataMuleScenario|ChunkPipeline|LiveBackend|LiveSoak|LiveStack|ServiceTimerLifetime|RequirementTimerLifetime|RpcProvisionLifetime|FileProgressLifetime'

echo "== perfbench smoke (mission_sim seed 1: correct, lat_p99_us <= 15 ms, allocs_per_op <= 8.92; telemetry_sim allocs_per_op <= 2.20) =="
./scripts/perfbench_smoke.sh

echo "== release hot-path bench (BENCH_hotpath.json) =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j"$(nproc)" --target bench_hotpath bench_live \
  bench_fleet bench_scenario_matrix bench_file_transfer bench_gateway
./build-release/bench/bench_hotpath > BENCH_hotpath.json
cat BENCH_hotpath.json

echo "== release live-datapath bench (BENCH_live.json) =="
./build-release/bench/bench_live --backend=epoll > BENCH_live.json
cat BENCH_live.json

echo "== release live-datapath bench, io_uring backend (BENCH_live_uring.json) =="
# On kernels without io_uring this emits explicit nulls + skip_reason and
# the compare below passes with a note; a kernel whose runtime probe says
# uring works but whose rings fail to come up makes bench_live exit
# nonzero, which fails this script loudly (that is a bug, not an
# environment limitation).
./build-release/bench/bench_live --backend=uring > BENCH_live_uring.json
cat BENCH_live_uring.json

echo "== release fleet-scaling bench (BENCH_fleet.json) =="
./build-release/bench/bench_fleet > BENCH_fleet.json
cat BENCH_fleet.json

echo "== release scenario matrix (BENCH_scenario.json) =="
./build-release/bench/bench_scenario_matrix > BENCH_scenario.json
cat BENCH_scenario.json

echo "== release file-transfer bench (BENCH_filetransfer.json) =="
./build-release/bench/bench_file_transfer > BENCH_filetransfer.json
cat BENCH_filetransfer.json

echo "== release gateway fan-out bench (BENCH_gateway.json) =="
./build-release/bench/bench_gateway --backend=epoll > BENCH_gateway.json
cat BENCH_gateway.json

echo "== release gateway fan-out bench, io_uring backend (ungated) =="
# Context-only leg: batched-SQE fan-out numbers for comparison; the
# gateway gate stays on the epoll leg (blind sendmsg fan-out has no
# syscall-count advantage to certify).
./build-release/bench/bench_gateway --backend=uring > BENCH_gateway_uring.json
cat BENCH_gateway_uring.json

echo "== bench regression gates =="
python3 scripts/bench_compare.py bench/baselines/hotpath.json \
  BENCH_hotpath.json
python3 scripts/bench_compare.py bench/baselines/live.json \
  BENCH_live.json
python3 scripts/bench_compare.py bench/baselines/live_uring.json \
  BENCH_live_uring.json
python3 scripts/bench_compare.py bench/baselines/fleet.json \
  BENCH_fleet.json
python3 scripts/bench_compare.py bench/baselines/scenario.json \
  BENCH_scenario.json
python3 scripts/bench_compare.py bench/baselines/filetransfer.json \
  BENCH_filetransfer.json
python3 scripts/bench_compare.py bench/baselines/gateway.json \
  BENCH_gateway.json

echo "check.sh: all green"
