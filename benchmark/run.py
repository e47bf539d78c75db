#!/usr/bin/env python3
"""Builds the fedbench program from source and runs a workload, or all.

    python3 benchmark/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); results, chrome traces and spill files go to .bench_out.
Build output goes to stderr, so the last stdout line of a workload's output
is the program's JSON result. The result's metric names are checked against BENCHMARK.json.
Exits non-zero when the build fails, the program fails a correctness check,
or its result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then (re)builds the program; returns its path."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "fedbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step failed: %s" % err)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "fedbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(program, spec, workload, args):
    """Runs one workload; prints its output; returns its exit code."""
    cmd = [program, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(ROOT, ".bench_out")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("fedbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail("fedbench printed no JSON result (exit %d)" % done.returncode)

    printed = list(result.get("metrics", {}))
    kind = "per_layer" if args.trace == 1 else "end_to_end"
    declared = [m["name"] for m in spec[kind]]
    if done.returncode == 0 and printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (missing, extra))
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    program = build(build_dir)
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    codes = [run_workload(program, spec, w, args) for w in workloads]
    sys.exit(max(codes))


if __name__ == "__main__":
    main()
