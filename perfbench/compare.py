#!/usr/bin/env python3
"""Steadiness and comparison tooling for the repository benchmark.

  compare.py collect OUT [--seeds 1-10] [--workloads a,b]
      Runs this checkout's perfbench/run.py once per (workload, seed)
      and stores each result in OUT/<workload>/<seed>.json.

  compare.py spread DIR
      For each (end-to-end metric, workload): the median, quartiles and
      spread (interquartile distance / median) of the runs in DIR, and
      whether the spread is within the metric's bound (and within a
      third of it, the target for a steady benchmark). The wall-clock
      job figures follow as ungated rows.

  compare.py agree FIRST SECOND
      Two sets of runs of the same code: every spread within its bound,
      and SECOND's median no worse than FIRST's by more than the bound.

  compare.py pairs PARENT CHANGE OUT [--workloads a,b]
      The parent-vs-change protocol: runs PARENT and CHANGE checkouts in
      ten alternating pairs (the parent first in even pairs) with seeds
      1..10, then judges each (metric, workload): "gain" when the
      change wins at least 9 of 10 pairs and the medians differ by more
      than the parent's interquartile distance; "regression" when the
      change's median is worse than the parent's by more than the bound;
      "unresolved" when the parent's spread exceeds the bound (unless
      every change run beats every parent run); else "no change".
      The wall-clock job figures follow as ungated rows.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PAIRS = 10
# Printed by run.py on its "wall:" line; shown beside the gated metrics
# so that a change that only adds waiting is visible, but not judged.
WALL = ["wall.job_p50_ms", "wall.jobs_per_s"]


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout, workload, seed, seconds, out_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed: {workload} seed {seed} in {checkout}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("wall: "):
            result["wall"] = json.loads(line[len("wall: "):])
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as f:
        f.write(json.dumps(result) + "\n")
    print(f"{checkout}: {workload} seed {seed} done", file=sys.stderr)


def load_runs(directory, workload):
    """metric name -> list of values over the runs of one workload; the
    wall figures under "wall.<name>"."""
    values = {}
    wdir = os.path.join(directory, workload)
    for name in sorted(os.listdir(wdir)):
        with open(os.path.join(wdir, name)) as f:
            result = json.load(f)
        for metric, m in result["metrics"].items():
            values.setdefault(metric, []).append(m["value"])
        for metric, v in result.get("wall", {}).items():
            values.setdefault("wall." + metric, []).append(v)
    return values


def stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse_by(first, second, better):
    """Relative amount by which `second` is worse than `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def workloads_in(directory):
    return sorted(d for d in os.listdir(directory)
                  if os.path.isdir(os.path.join(directory, d)))


def cmd_collect(args):
    spec = load_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            run_once(ROOT, workload, seed, spec["run_seconds"],
                     os.path.join(args.out, workload, f"{seed}.json"))


def cmd_spread(args):
    spec = load_spec()
    ok = True
    print(f"{'workload':18} {'metric':14} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for workload in workloads_in(args.dir):
        values = load_runs(args.dir, workload)
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            median, q1, q3, spread = stats(v)
            if spread <= m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "within bound"
            else:
                verdict, ok = "OUT OF BOUND", False
            print(f"{workload:18} {m['name']:14} {len(v):3} {median:12.4f} "
                  f"{q1:12.4f} {q3:12.4f} {spread:7.3f} {m['bound']:6.2f}  "
                  f"{verdict}")
        for name in WALL:
            v = values.get(name)
            if v:
                median, q1, q3, spread = stats(v)
                print(f"{workload:18} {name:14} {len(v):3} "
                      f"{median:12.4f} {q1:12.4f} {q3:12.4f} {spread:7.3f} "
                      f"{'-':>6}  (not gated)")
    return 0 if ok else 1


def cmd_agree(args):
    spec = load_spec()
    ok = True
    print(f"{'workload':18} {'metric':14} {'median 1':>12} {'median 2':>12} "
          f"{'worse':>7} {'spread 1':>8} {'spread 2':>8} {'bound':>6}  verdict")
    for workload in workloads_in(args.first):
        first = load_runs(args.first, workload)
        second = load_runs(args.second, workload)
        for m in spec["end_to_end"]:
            m1, _, _, s1 = stats(first[m["name"]])
            m2, _, _, s2 = stats(second[m["name"]])
            worse = worse_by(m1, m2, m["better"])
            agree = max(s1, s2) <= m["bound"] and worse <= m["bound"]
            ok = ok and agree
            print(f"{workload:18} {m['name']:14} {m1:12.4f} {m2:12.4f} "
                  f"{worse:7.3f} {s1:8.3f} {s2:8.3f} {m['bound']:6.2f}  "
                  f"{'agree' if agree else 'DISAGREE'}")
    return 0 if ok else 1


def judge(parent, change, metric):
    """Verdict for one (metric, workload) from paired runs."""
    better, bound = metric["better"], metric["bound"]
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pm, pq1, pq3, pspread = stats(parent)
    cm = statistics.median(change)
    if wins >= 0.9 * len(parent) and abs(cm - pm) > pq3 - pq1 and \
            sign * (pm - cm) > 0:
        return "gain", wins
    if worse_by(pm, cm, better) > bound:
        return "regression", wins
    every_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if pspread > bound and not every_better:
        return "unresolved", wins
    return "no change", wins


def cmd_pairs(args):
    spec = load_spec(args.change)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for i, seed in enumerate(range(1, PAIRS + 1)):
            sides = [("parent", args.parent), ("change", args.change)]
            if i % 2 == 1:
                sides.reverse()
            for side, checkout in sides:
                run_once(checkout, workload, seed, spec["run_seconds"],
                         os.path.join(args.out, side, workload, f"{seed}.json"))
    print(f"{'workload':18} {'metric':14} {'parent':>12} {'change':>12} "
          f"{'wins':>6}  verdict")
    for workload in workloads:
        parent = load_runs(os.path.join(args.out, "parent"), workload)
        change = load_runs(os.path.join(args.out, "change"), workload)
        for m in spec["end_to_end"]:
            verdict, wins = judge(parent[m["name"]], change[m["name"]], m)
            print(f"{workload:18} {m['name']:14} "
                  f"{statistics.median(parent[m['name']]):12.4f} "
                  f"{statistics.median(change[m['name']]):12.4f} "
                  f"{wins:3}/{len(parent[m['name']]):<2}  {verdict}")
        for name in WALL:
            p, c = parent.get(name), change.get(name)
            if p and c:
                print(f"{workload:18} {name:14} {statistics.median(p):12.4f} "
                      f"{statistics.median(c):12.4f} {'':6}  (not gated)")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect")
    p.add_argument("out")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", type=lambda s: s.split(","))
    p.set_defaults(fn=cmd_collect)
    p = sub.add_parser("spread")
    p.add_argument("dir")
    p.set_defaults(fn=cmd_spread)
    p = sub.add_parser("agree")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=cmd_agree)
    p = sub.add_parser("pairs")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("out")
    p.add_argument("--workloads", type=lambda s: s.split(","))
    p.set_defaults(fn=cmd_pairs)
    args = parser.parse_args()
    sys.exit(args.fn(args) or 0)


if __name__ == "__main__":
    main()
