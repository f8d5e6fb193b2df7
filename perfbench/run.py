#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload telemetry_sim --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when unset, runs the
arithmetic self-test, then runs one workload. Build output goes to stderr;
the last stdout line is the benchmark's JSON result. Exits nonzero when the
build, the self-test or an output check fails.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("telemetry_sim", "mission_sim", "ground_link_epoll", "ground_link_uring")


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; returns the exit code."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode


def build(bench_dir, build_dir):
    if not os.path.isfile(os.path.join(bench_dir, "..", "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return False
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            log("cmake configure failed")
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_quiet(["cmake", "--build", build_dir, "-j", jobs]) != 0:
        log("build failed")
        return False
    return True


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    try:
        if not build(bench_dir, build_dir):
            return 1
    except OSError as e:  # cmake missing, unwritable directory
        log(f"cannot build: {e}")
        return 1

    if run_quiet([os.path.join(build_dir, "perfbench_selftest")]) != 0:
        log("self-test failed")
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", build_dir]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 1
    sys.stdout.write(res.stdout.decode())
    sys.stdout.flush()
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
