#!/usr/bin/env python3
"""Steadiness check of the admission benchmark.

    python3 admitbench/steadiness.py [--seeds 10] [--first-seed 1]
        [--workloads a,b] [--seconds S] [--repeat] [--trace]

Run from the repository root. Runs every workload once per seed through
run.py (--trace 0), alternating the workload order from seed to seed, and
prints for each end-to-end metric of BENCHMARK.json its median, quartiles
and spread (quartile distance as a share of the median, from
statistics.quantiles(values, n=4)). A spread above the metric's bound is
flagged OVER, one above a third of it WIDE. --repeat reruns the first seed and requires the same
outcome digest on the single-client workloads. --trace runs each workload
once with --trace 1 and prints the mapper's per-step split. Exits nonzero
when a spread is over its bound or a digest differs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STEPS = ("core.round_setup_us_mean", "core.step1_us_mean",
         "core.step2_us_mean", "core.step3_us_mean", "core.step4_us_mean")


def run(workload, seed, seconds, trace=0):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(command)} exited with code {done.returncode}")
    info = dict(field.split("=", 1) for field in lines[-2].split()[1:])
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, info


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--repeat", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.seeds)

    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    digests = {}
    for i, seed in enumerate(seeds):
        for workload in (workloads if i % 2 == 0 else workloads[::-1]):
            metrics, info = run(workload, seed, seconds)
            digests[(workload, seed)] = info
            for name in values[workload]:
                values[workload][name].append(metrics[name])
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{k}={metrics[k]:.4g}" for k in values[workload]),
                flush=True)

    bad = False
    print(f"\n{len(seeds)} seeds, {seconds:g} s per run")
    print(f"{'workload':16} {'metric':22} {'median':>11} {'q1':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6}")
    for workload in workloads:
        for m in spec["end_to_end"]:
            v = values[workload][m["name"]]
            if len(v) < 2:
                q1 = q3 = med = v[0]
            else:
                q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > m["bound"]:
                flag, bad = "OVER", True
            elif spread > m["bound"] / 3:
                flag = "WIDE"
            print(f"{workload:16} {m['name']:22} {med:11.5g} {q1:11.5g} "
                  f"{q3:11.5g} {spread:7.3f} {m['bound']:6.2f} {flag}")

    if args.repeat:
        seed = seeds[0]
        for workload in workloads:
            first = digests[(workload, seed)]
            _, again = run(workload, seed, seconds)
            same = again["digest"] == first["digest"]
            if first["deterministic"] == "true" and not same:
                bad = True
            print(f"same-seed rerun {workload} seed {seed}: digest "
                  f"{first['digest']} -> {again['digest']} "
                  f"({'match' if same else 'differs'}"
                  f"{'' if first['deterministic'] == 'true' else ', concurrent: reported only'})")

    if args.trace:
        print("\nmapper per-step split (traced run, per map() call)")
        for workload in workloads:
            layer, info = run(workload, seeds[0], seconds, trace=1)
            total = sum(layer[s] for s in STEPS)
            split = ", ".join(f"{s.split('.')[1].replace('_us_mean', '')} "
                              f"{100 * layer[s] / total if total else 0:.1f}%"
                              for s in STEPS)
            print(f"{workload:16} map calls {layer['core.map_calls']:.0f}, "
                  f"{layer['core.map_us_mean']:.1f} us/call: {split}; "
                  f"tracing overhead {layer['trace.overhead_admit_p50_us']:+.2f}"
                  f" us on admit p50; digest {info['digest']}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
