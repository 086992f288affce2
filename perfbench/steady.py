#!/usr/bin/env python3
"""Runs the benchmark repeatedly and reports how steady each metric is.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--trace 0]

Run from the repository root. For every workload it runs the command in
BENCHMARK.json once per seed (seeds 1..N), then prints, per metric, the
median and the interquartile range as a share of the median (quartiles
as statistics.quantiles(values, n=4) computes them), next to the
metric's bound and a third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--verbose", action="store_true", help="also list every value")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(1, args.seeds + 1):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stdout[-2000:]}{run.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({args.seeds} seeds)")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "  OK" if spread < bound / 3 else ("  within bound" if spread <= bound else "  TOO NOISY")
            b = f"bound {bound}" if bound is not None else ""
            print(f"  {name:42} median {med:<14.6g} spread {spread:7.4f}  {b}{flag}")
            if args.verbose:
                print("    " + " ".join(f"{v:.6g}" for v in vals))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
