#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --canary

Run from the repository root.  Builds the measuring program
(perfbench/ocaml/) from source with dune in a workspace under
.bench_build/, runs it for S seconds, and turns its raw
measurements into the metrics BENCHMARK.json names: the end-to-end
metrics with --trace 0, the per-layer ledger with --trace 1.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Earlier lines give each end-to-end metric's median, quartiles and sample
count across the run's repetitions.  Exits non-zero, printing no result,
when the program cannot be built or run.

--canary shows that the output check can fail: it runs dgram_168 at seed
42 against a perturbed copy of the recorded digest (every unit must count
as failed) and against the true one (none may), and exits non-zero
otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKSPACE = os.path.join(BUILD_DIR, "ws")
EXE = os.path.join(WORKSPACE, "_build", "default", "perfbench", "main.exe")
DIGESTS = os.path.join("perfbench", "digests.json")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def link(target, name):
    """Point WORKSPACE/name at target (a path from the repository root)."""
    path = os.path.join(WORKSPACE, name)
    rel = os.path.relpath(target, WORKSPACE)
    if os.path.islink(path) and os.readlink(path) == rel:
        return
    if os.path.lexists(path):
        os.remove(path)
    os.symlink(rel, path)


def build():
    """The benchmark is a dune project of its own (perfbench/dune-project)
    over the simulator's private libraries, so it is built in a workspace
    holding that project file, lib/ and perfbench/ocaml/, never as part of
    the repository's own build."""
    if not os.path.isdir("lib"):
        fail("no lib/ here: run from the root of the repository")
    os.makedirs(WORKSPACE, exist_ok=True)
    link(os.path.join("perfbench", "dune-project"), "dune-project")
    link("lib", "lib")
    link(os.path.join("perfbench", "ocaml"), "perfbench")
    cmd = ["dune", "build", "--root", WORKSPACE, "--cache=disabled",
           "--display", "quiet", "./perfbench/main.exe"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0:
        fail("build failed:\n" + proc.stdout + proc.stderr)


def measure(args):
    trace_dir = os.path.join(BUILD_DIR, "perfbench-trace")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--digests", DIGESTS,
           "--trace-out", os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run failed: %s" % e)
    if proc.returncode != 0 or not proc.stdout.strip():
        fail("run failed (exit %d):\n%s" % (proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """Median, quartiles and count of a sample."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def end_to_end(raw):
    """Wall metrics are per-repetition times scaled to the reference
    machine speed (see perfbench/calib.ml); the raw ones are printed too."""
    plain = [r for r in raw["reps"] if not (r["traced"] or r["warmup"])]
    samples = {
        "units_per_s": [r["units"] * 1e9 / r["scaled_sim_ns"] for r in plain],
        "setup_s": [r["scaled_setup_ns"] / 1e9 for r in plain],
        "alloc_words_per_unit": [r["minor_words"] / r["units"] for r in plain],
        "major_words_per_unit": [r["major_words"] / r["units"] for r in plain],
        "peak_heap_mb": [raw["peak_heap_words"] * 8 / 1e6],
        "raw units_per_s": [r["units"] * 1e9 / r["sim_ns"] for r in plain],
        "raw setup_s": [r["setup_ns"] / 1e9 for r in plain],
    }
    # promotion depends on where minor collections fall, so major words
    # per repetition flip between a few modes: their mean is steadier
    # than their median
    mean_of = {"alloc_words_per_unit", "major_words_per_unit"}
    values = {}
    for name, sample in samples.items():
        med, q1, q3, n = spread(sample)
        print("%-22s median %.6g  q1 %.6g  q3 %.6g  mean %.6g  n %d"
              % (name, med, q1, q3, statistics.fmean(sample), n))
        values[name] = statistics.fmean(sample) if name in mean_of else med
    print("units per repetition %d; digest %s (%s)" % (plain[0]["units"], raw["digest"], raw["digest_source"]))
    return values


def per_layer(raw):
    values = {}
    for name, v in raw["ledger"].items():
        if isinstance(v, list):
            num, den = v
            v = num / den if den else 0.0
        values[name] = v
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--canary", action="store_true",
                    help="only check that a perturbed digest fails the output check")
    args = ap.parse_args()
    if args.canary:
        build()
        sys.exit(subprocess.run([EXE, "--canary", "--digests", DIGESTS], timeout=170).returncode)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload " + args.workload)
    build()
    raw = measure(args)
    for p in raw["problems"]:
        print("check failed: " + p)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = per_layer(raw) if args.trace else end_to_end(raw)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail("metrics not measured: " + ", ".join(missing))
    attempted = sum(r["units"] for r in raw["reps"])
    failed = sum(r["units"] for r in raw["reps"] if r["failed"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
