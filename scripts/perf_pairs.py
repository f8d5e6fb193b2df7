#!/usr/bin/env python3
"""Alternating parent/change pairs of the perfbench benchmark.

    scripts/perf_pairs.py PARENT_REV [--workload mission_sim] [--seed 1]
                          [--seconds 30] [--pairs 10] [--trace 0]
                          [--work-dir DIR]

The change side is the checkout this script sits in, as it stands on
disk; the parent side is PARENT_REV's committed tree, exported with
`git archive` into the work directory (a fresh temporary directory unless
--work-dir names one to keep builds between invocations). Each side
builds its own perfbench into its own CARGO_TARGET_DIR under the work
directory, in one discarded warm-up run. Then N pairs run through each
side's perfbench/run.py with the same arguments, alternating which side
goes first.

For every metric BENCHMARK.json lists (end to end, or per layer with
--trace 1) that both sides print, the summary gives each side's first
quartile, median and third quartile, the pairs the change won (ties count
for neither side) and the verdict of the gain rule: the change wins at
least nine tenths of the pairs and its median beats the parent's by more
than the parent's interquartile range. Every run's metrics go to stderr
as it finishes. Exits nonzero when a build or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def quartiles(values):
    """(first quartile, median, third quartile), linearly interpolated."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def better_than(a, b, better):
    return a < b if better == "lower" else a > b


def summarize(parent, change, better):
    """Per-pair comparison of one metric; parent[i] and change[i] are the
    two runs of pair i."""
    assert len(parent) == len(change) and parent
    pq = quartiles(parent)
    cq = quartiles(change)
    wins = sum(better_than(c, p, better) for p, c in zip(parent, change))
    gain = (wins * 10 >= len(parent) * 9 and better_than(cq[1], pq[1], better)
            and abs(cq[1] - pq[1]) > pq[2] - pq[0])
    return {"parent": pq, "change": cq, "wins": wins, "pairs": len(parent),
            "gain": gain}


def fmt_quartiles(q):
    return " / ".join(f"{v:.6g}" for v in q)


def metric_directions(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["better"]
            for m in bench["end_to_end"] + bench.get("per_layer", [])}


def run_side(checkout, target, args, seconds):
    """One perfbench run from `checkout`; returns {metric: value}."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    res = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.exit(f"perf_pairs: run in {checkout} failed "
                 f"(exit {res.returncode})")
    out = json.loads(lines[-1])
    if not out.get("correct", False):
        sys.exit(f"perf_pairs: run in {checkout} failed its output checks")
    return {k: v["value"] for k, v in out["metrics"].items()}


def export_tree(rev, dest):
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar",
                              rev], stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout,
                   check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent_rev")
    p.add_argument("--workload", default="mission_sim")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir")
    args = p.parse_args()
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if args.work_dir:
        return run_pairs(args, os.path.abspath(args.work_dir))
    with tempfile.TemporaryDirectory(prefix="perf_pairs-") as work:
        return run_pairs(args, work)


def run_pairs(args, work):
    parent_tree = os.path.join(work, "parent")
    export_tree(args.parent_rev, parent_tree)
    sides = {
        "parent": (parent_tree, os.path.join(work, "target-parent")),
        "change": (ROOT, os.path.join(work, "target-change")),
    }
    for name, (checkout, target) in sides.items():
        print(f"perf_pairs: building and warming up {name}", file=sys.stderr)
        run_side(checkout, target, args, seconds=1)

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for name in order:
            checkout, target = sides[name]
            runs[name].append(run_side(checkout, target, args, args.seconds))
            print(f"perf_pairs: pair {i + 1} {name}: "
                  f"{json.dumps(runs[name][-1], sort_keys=True)}",
                  file=sys.stderr, flush=True)

    directions = metric_directions(ROOT)
    print(f"{args.workload} seed {args.seed}, {args.seconds:g} s runs, "
          f"{args.pairs} pairs against {args.parent_rev}")
    print(f"{'metric':<40} {'better':<6} {'parent q1 / median / q3':>32} "
          f"{'change q1 / median / q3':>32} {'wins':>7}  gain")
    for name, better in directions.items():
        if not all(name in r for r in runs["parent"] + runs["change"]):
            continue
        s = summarize([r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]], better)
        print(f"{name:<40} {better:<6} {fmt_quartiles(s['parent']):>32} "
              f"{fmt_quartiles(s['change']):>32} "
              f"{s['wins']:>3}/{s['pairs']:<3}  "
              f"{'yes' if s['gain'] else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
