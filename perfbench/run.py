#!/usr/bin/env python3
"""Builds and runs the end-to-end DEAR benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload brake_someip --seed 1 --seconds 30 --trace 0

The first call configures and builds perfbench/ (the core library from
src/ plus the dear_perfbench binary) into .bench_build/perfbench; later
calls only check that the build is current. The binary's report goes to stdout, build
output to stderr. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics, where metrics holds exactly the
metrics BENCHMARK.json lists for the mode: end_to_end with --trace 0,
per_layer with --trace 1. A build failure or a listed metric the binary
did not report exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_BASE = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BUILD_DIR = os.path.join(BUILD_BASE, "perfbench")
BINARY = os.path.join(BUILD_DIR, "dear_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_quiet(command):
    """Runs a build step, sending its output to stderr."""
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if result.returncode != 0:
        fail(f"build step failed ({result.returncode}): {' '.join(command)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from a checkout of the repository")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD_DIR, "--target", "dear_perfbench", "-j", jobs])


def listed_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    listed = listed_metrics(args.trace)
    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"dear_perfbench exceeded {RUN_TIMEOUT_S} s")
    if result.returncode != 0:
        print(result.stdout, end="", file=sys.stderr)
        fail(f"dear_perfbench exited with {result.returncode}")
    report = json.loads(result.stdout.rstrip("\n").split("\n")[-1])

    metrics = {}
    for entry in listed:
        measured = report["metrics"].get(entry["name"])
        if measured is None or measured["unit"] != entry["unit"]:
            print(result.stdout, end="", file=sys.stderr)
            fail(f"dear_perfbench did not report {entry['name']} in {entry['unit']}")
        metrics[entry["name"]] = measured
    print(result.stdout, end="")
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
