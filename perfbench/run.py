#!/usr/bin/env python3
"""Runs one benchmark run of one workload and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call builds the library sources
(src/) and the benchmark binary (perfbench/src/) with CMake into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls reuse
the build. The binary's report is checked here:

  * at the committed seed, cell, report and telemetry digests and the
    exact counts must equal perfbench/expected.json;
  * at any seed, they must equal those of earlier runs of the same build
    and seed (kept under <build dir>/state/), so a count or report that
    changes from one run to the next fails the run.

The last line of standard output is the result object; the line before
it holds the full report (host facts, samples, counts, span durations).
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "campaign.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    build_dir = os.path.join(build_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(os.path.join(build_root, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def fingerprint(doc):
    return {"cells": doc["cells"], "report": doc["report_digest"],
            "telemetry": doc["telemetry_digest"], "counts": doc["counts"]}


def mismatched_cells(reference, doc):
    """Cell indices whose digest differs from `reference`; every cell when
    the report, telemetry or cell count differs."""
    cells = doc["cells"]
    if (reference["report"] != doc["report_digest"]
            or reference["telemetry"] != doc["telemetry_digest"]
            or len(reference["cells"]) != len(cells)):
        return set(range(len(cells)))
    return {i for i, d in enumerate(cells) if reference["cells"][i] != d}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail("BENCHMARK.json not found at " + bench_path)
    with open(bench_path) as f:
        bench = json.load(f)

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    binary = build(build_root)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_root, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans_dir, "%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail("perfbench binary exited with status %d" % proc.returncode)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])

    problems = []
    bad_cells = set()
    mine = fingerprint(doc)
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f).get(args.workload)
    if expected is not None and expected["seed"] == args.seed:
        bad_cells |= mismatched_cells(expected, doc)
        if expected["counts"] != doc["counts"]:
            problems.append("counts differ from perfbench/expected.json")
    state_dir = os.path.join(build_root, "state")
    os.makedirs(state_dir, exist_ok=True)
    state_path = os.path.join(state_dir, "%s-%d.json" % (args.workload,
                                                        args.seed))
    binary_id = file_digest(binary)
    earlier = None
    if os.path.isfile(state_path):
        with open(state_path) as f:
            earlier = json.load(f)
    if earlier is not None and earlier.get("binary") == binary_id:
        bad_cells |= mismatched_cells(earlier["fingerprint"], doc)
        if earlier["fingerprint"]["counts"] != doc["counts"]:
            problems.append("counts differ from an earlier run of this seed")
    else:
        with open(state_path, "w") as f:
            json.dump({"binary": binary_id, "fingerprint": mine}, f)
    if not doc["counts_repeat"]:
        problems.append("counts differ between passes of this run")

    passes = doc["passes"] + doc["traced_passes"]
    attempted = passes * len(doc["cells"])
    failed = sum(passes - ok for ok in doc["cell_ok"])
    failed += sum(doc["cell_ok"][i] for i in bad_cells)
    failed = min(attempted, failed + doc["lost_cells"])
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)

    if args.trace:
        listed, values = bench["per_layer"], doc["per_layer"]
    else:
        listed, values = bench["end_to_end"], dict(doc["end_to_end"])
        values["ok_cell_frac"] = (attempted - failed) / attempted
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        fail("perfbench binary did not report " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    print(json.dumps(doc, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
