#!/usr/bin/env python3
"""perfbench: the fp8q end-to-end benchmark (see perfbench/README.md).

Builds the harness and the fp8q library from source into .bench_build/ at
the repository root, then runs one workload:

    python3 perfbench/run.py --workload sweep|tune|serve --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --selftest

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1.
The exit code is 0 only when every output matched its reference. Detailed
results (sample counts, notes, the layer-to-end-to-end map) are written to
.bench_build/perfbench-results/.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD, "fp8q_perfbench")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
WORKLOADS = ("sweep", "tune", "serve")
# One harness run must end well within the 180 s a run may take.
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "fp8q_perfbench",
         "perfbench_selftest"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_harness(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--root", ROOT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines, trace):
    """The result object on the last line, checked against BENCHMARK.json."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    missing = declared_metrics(trace) ^ set(result.get("metrics", {}))
    if missing:
        fail("metrics differ from BENCHMARK.json: " + ", ".join(sorted(missing)))
    return result


def run_one(args):
    code, lines = run_harness(args.workload, args.seed, args.seconds, args.trace)
    result = parse_result(lines, args.trace)
    if result is None:
        fail(f"{args.workload} produced no result (exit code {code})")
    print("\n".join(lines))
    return code


def run_all(args):
    """Every workload in its own process, one table, one combined result."""
    results = {}
    code = 0
    for workload in WORKLOADS:
        rc, lines = run_harness(workload, args.seed, args.seconds, args.trace)
        result = parse_result(lines, args.trace)
        if result is None:
            fail(f"{workload} produced no result (exit code {rc})")
        print("\n".join(lines[:-1]))
        results[workload] = result
        code = code or rc
    names = sorted(declared_metrics(args.trace))
    print(f"\n{'metric':32s}" + "".join(f"{w:>18s}" for w in WORKLOADS))
    for name in names:
        row = [results[w]["metrics"][name] for w in WORKLOADS]
        print(f"{name + ' [' + row[0]['unit'] + ']':32s}" +
              "".join(f"{m['value']:18.6g}" for m in row))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(f"{'error_rate':32s}" + "".join(
        f"{results[w]['failed'] / results[w]['attempted']:18.6g}" for w in WORKLOADS))
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": attempted, "failed": failed,
                      "workloads": results}))
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the harness's own unit tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")

    build()
    if args.selftest:
        return subprocess.run([SELFTEST], cwd=ROOT).returncode
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
