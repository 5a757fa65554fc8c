#!/usr/bin/env python3
"""Closed-loop admission benchmark of the run-time spatial mapper.

    python3 admitbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the mapper library and the admitbench
binary from source (Release, into .bench_build/admitbench), runs one
workload for one seed and prints, as the last line, one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 runs the workload twice,
untraced and then with the step-timed mapper, and reports the per-layer
metrics of the traced run plus the tracing overhead.

Any failure of the correctness gate, of the build, or of the traced run to
reproduce the untraced run's outcomes exits nonzero and prints no result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "admitbench"
WORKLOADS = ("miss-mesh16", "fleet-modechurn")
OVERHEAD = "trace.overhead_admit_p50_us"


def fail(message):
    print(f"admitbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then (re)builds; the build log goes to stderr."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))
    return BUILD / "admitbench"


def run_pass(binary, args, traced, timeout):
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds)]
    if traced:
        spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.csv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        command += ["--traced", "--spans", str(spans)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {done.returncode}")
    report = json.loads(lines[-1])
    for finding in report["gate_failures"]:
        print(f"admitbench: gate: {finding}", file=sys.stderr)
    if report["gate_failures"]:
        fail("correctness gate failed")
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    binary = build()

    # Two passes fit the 180 s budget of a traced run.
    timeout = 85 if args.trace else 170
    untraced = run_pass(binary, args, traced=False, timeout=timeout)
    report, metrics = untraced, dict(untraced["metrics"])
    wanted = spec["end_to_end"]
    if args.trace:
        traced = run_pass(binary, args, traced=True, timeout=timeout)
        if untraced["deterministic"] and traced["digest"] != untraced["digest"]:
            fail("the traced run's outcomes differ from the untraced run's "
                 f"({traced['digest']} != {untraced['digest']})")
        report, metrics = traced, dict(traced["metrics"])
        metrics[OVERHEAD] = (traced["metrics"]["admit_p50_us"] -
                             untraced["metrics"]["admit_p50_us"])
        wanted = spec["per_layer"]

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing))
    print(f"admitbench: workload={args.workload} seed={args.seed} "
          f"digest={report['digest']} digest_calls={report['digest_calls']} "
          f"deterministic={str(report['deterministic']).lower()}")
    print(json.dumps({
        "correct": True,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
