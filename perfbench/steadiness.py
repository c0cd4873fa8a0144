#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs each workload in two
alternating sets of runs and compares them against BENCHMARK.json.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10]
                                    [--first-seed 1] [--json out.json]

Run i of both sets uses seed first_seed + i; even i runs set A first, odd
i runs set B first, so slow drift of the host lands on both sets alike.
For every end-to-end metric it prints each set's median and quartiles,
the spread (interquartile range over median, as statistics.quantiles
gives it) and the gap between the set medians in the metric's worse
direction, each against the metric's bound:

  * spread  - must stay within the bound (setup_s is exempt); "steady"
              means below a third of it;
  * gap     - the second set's median may be worse than the first's by at
              most the bound.

Exits 1 if any run fails or any check is out of bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    return result if result["correct"] else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--json", help="also write every value here")
    args = parser.parse_args()

    ok = True
    record = {}
    for workload in args.workloads.split(","):
        sets = {"A": {}, "B": {}}
        for i in range(args.runs):
            seed = args.first_seed + i
            for name in ("A", "B") if i % 2 == 0 else ("B", "A"):
                result = one_run(workload, seed, args.seconds)
                if result is None:
                    print("%s seed %d set %s: run failed" % (workload, seed,
                                                              name))
                    ok = False
                    continue
                for metric, m in result["metrics"].items():
                    sets[name].setdefault(metric, []).append(m["value"])
        record[workload] = sets
        print("\n%s (%d runs per set, %g s each)" % (workload, args.runs,
                                                    args.seconds))
        print("  %-20s %12s %12s %8s %8s %8s %6s  %s" % (
            "metric", "A median", "B median", "A sprd", "B sprd", "gap",
            "bound", "verdict"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = sets["A"].get(name, []), sets["B"].get(name, [])
            if len(a) < 2 or len(b) < 2:
                print("  %-20s too few runs" % name)
                ok = False
                continue
            stats = []
            for values in (a, b):
                q1, q2, q3 = statistics.quantiles(values, n=4)
                stats.append((q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0))
            (_, ma, _, sa), (_, mb, _, sb) = stats
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            spread_ok = name == "setup_s" or max(sa, sb) <= bound
            gap_ok = worse <= bound
            steady = name == "setup_s" or max(sa, sb) < bound / 3
            verdict = ("ok" if spread_ok and gap_ok else "OUT") + (
                "" if steady else " (spread above bound/3)")
            ok &= spread_ok and gap_ok
            print("  %-20s %12.6g %12.6g %8.3f %8.3f %8.3f %6.2f  %s" % (
                name, ma, mb, sa, sb, worse, bound, verdict))
            for label, (q1, q2, q3, _) in zip("AB", stats):
                print("    %s quartiles: %.6g / %.6g / %.6g" % (label, q1, q2,
                                                              q3))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
