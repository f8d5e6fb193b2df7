#!/usr/bin/env python3
"""Bench regression gate: compare a bench run against a committed baseline.

Usage: bench_compare.py BASELINE.json CURRENT.json

Every baseline carries a "gates" object describing how each key is
judged (a baseline without one is rejected, exit 2):

  "gates": {
    "engine_ring_events_per_sec": {"direction": "higher",
                                   "tolerance": 0.60},
    "fleet64_speedup": {"direction": "higher", "min": 2.0}
  }

* direction: "lower" (default) — current must not exceed
  baseline * (1 + tolerance); "higher" — current must not fall below
  baseline * (1 - tolerance). Throughput keys use "higher" with a
  generous tolerance since wall clock varies across machines. A zero
  "lower" baseline gets no headroom (any copy is a regression).
* tolerance: relative headroom, default 0.10.
* min: absolute floor (direction "higher") or ceiling ("lower")
  applied INSTEAD of the relative band when the baseline value is
  null — e.g. a speedup target recorded on a single-core box, or a
  paper claim's shape (bench/baselines/claims.json).
* require_in_ci: a gated key whose CURRENT value is null (or
  missing) is normally skipped with a note — the bench declared it
  unmeasurable in this environment (a laptop without enough cores).
  With require_in_ci, that skip becomes a FAILURE when $CI is set:
  the CI runner is contractually multi-core, so "unmeasurable" there
  means the runner shrank and the multi-thread gate silently stopped
  engaging. Local runs still skip cleanly.

A current run marked {"skipped": true} (bench_live on a sandbox that
forbids loopback sockets) passes with a note: an environment limitation
is not a perf regression.
"""

import json
import os
import sys

CONTEXT = [
    "delivered_per_sample",
    "heap_bytes_per_sample",
    "net_payload_allocs_per_sample",
    "net_payload_copies_per_sample",
    "wire_bytes_per_sample",
    "sim_events_per_sample",
    "mean_latency_us",
    "p50_latency_us",
    "p99_latency_us",
    "p999_latency_us",
    "samples_per_sec_wall",
    "epoll_samples_per_sec_wall",
    "speedup_vs_epoll",
    "engine_ring_events_per_sec",
    "fleet64_events_per_sec_1t",
    "fleet64_speedup",
    "hardware_concurrency",
]


def check_spec_gate(key, spec, baseline, current, failures):
    """One baseline-embedded gate; appends to failures on regression."""
    if key not in current:
        # An ABSENT gated key is not the same as an explicit null: null
        # means the bench declared the metric unmeasurable here, absence
        # means the bench silently stopped reporting a gated metric
        # (renamed key, dropped counter) — which would otherwise let any
        # regression through unexamined.
        print(f"  [REGRESSION] {key}: missing from current run — gated "
              "keys must be reported (null if unmeasurable)")
        failures.append(key)
        return
    cur = current[key]
    if cur is None:
        reason = current.get("skip_reason",
                             current.get("speedup_skip_reason",
                                         "reported null"))
        if spec.get("require_in_ci") and os.environ.get("CI"):
            print(f"  [REGRESSION] {key}: {reason} — but this key is "
                  "required on CI runners")
            failures.append(key)
            return
        print(f"  [   skipped] {key}: {reason}")
        return
    cur = float(cur)
    higher = spec.get("direction", "lower") == "higher"
    base = baseline.get(key)
    if base is None:
        # No baseline measurement (recorded on a machine that couldn't
        # produce one) — fall back to the absolute floor/ceiling.
        limit = spec.get("min")
        if limit is None:
            print(f"  [   context] {key}: {cur:g} (no baseline, no min)")
            return
        limit = float(limit)
        ok = cur >= limit if higher else cur <= limit
        bound = "floor" if higher else "ceiling"
        print(f"  [{'ok' if ok else 'REGRESSION':>10}] {key}: {cur:g} "
              f"(absolute {bound} {limit:g})")
    else:
        base = float(base)
        tolerance = float(spec.get("tolerance", 0.10))
        if higher:
            limit = base * (1.0 - tolerance)
            ok = cur >= limit
        else:
            limit = base * (1.0 + tolerance)
            ok = cur <= limit if base > 0 else cur <= 0
        print(f"  [{'ok' if ok else 'REGRESSION':>10}] {key}: {cur:g} "
              f"(baseline {base:g}, limit {limit:g})")
    if not ok:
        failures.append(key)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    with open(sys.argv[1]) as f:
        baseline = json.load(f)
    with open(sys.argv[2]) as f:
        current = json.load(f)

    gates = baseline.get("gates")
    if gates is None:
        print(f"bench_compare: {sys.argv[1]} has no \"gates\" object — "
              "nothing to judge against", file=sys.stderr)
        return 2

    if current.get("skipped"):
        reason = current.get("reason", "no reason given")
        print(f"bench_compare: {sys.argv[2]} skipped ({reason}) — "
              "passing without comparison")
        return 0

    failures = []
    print(f"bench_compare: {sys.argv[2]} vs baseline {sys.argv[1]}")
    for key, spec in gates.items():
        check_spec_gate(key, spec, baseline, current, failures)

    for key in CONTEXT:
        if key in gates:
            continue
        if key in baseline and key in current:
            bval, cval = baseline[key], current[key]
            if bval is None or cval is None:
                continue
            print(f"  [   context] {key}: {float(cval):g} "
                  f"(baseline {float(bval):g})")

    if failures:
        print(f"bench_compare: FAIL — regressed: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print("bench_compare: all gated metrics within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
