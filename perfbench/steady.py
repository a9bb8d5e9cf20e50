#!/usr/bin/env python3
"""Steadiness helper: repeat one benchmark workload over several seeds and
print, for every metric, its median, quartiles and quartile spread as a
share of the median, next to the metric's bound in BENCHMARK.json.

Run from the repository root, e.g.

    python3 perfbench/steady.py --workload spine --runs 5
    python3 perfbench/steady.py --workload inline --runs 10 --first-seed 101

A spread at or above a third of the bound is flagged: such a metric is too
noisy to gate on and needs more work per run, or dropping. setup_s is
flagged only on its median, as it is the one metric whose spread is not
gated. Runs go one after another; running them side by side would
perturb them.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--bench", default="BENCHMARK.json")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    cmd = bench["command"]

    values = {}
    units = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        argv = cmd + ["--workload", args.workload, "--seed", str(seed),
                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: correct={res['correct']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
              flush=True)

    print(f"\n{args.workload}, {args.runs} runs")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    noisy = []
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread >= bound / 3:
            flag = "  NOISY"
            noisy.append(name)
        print(f"{name:34} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {bound if bound is not None else '':>6}{flag}"
              f"  {units[name]}")
    if noisy:
        print("spread at or above a third of the bound: " + ", ".join(noisy))


if __name__ == "__main__":
    main()
