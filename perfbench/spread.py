#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload serve --seeds 1-10 [--trace 0|1] \
        [--out runs.json]

For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
inter-quartile distance as a share of the median, beside the metric's bound
from BENCHMARK.json. With --out, the raw per-seed results are appended to a
JSON file keyed by workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    kind = "per_layer" if args.trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    runs = []
    for seed in seeds(args.seeds):
        cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", args.trace]
        t0 = time.time()
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        took = time.time() - t0
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode} after {took:.1f} s", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        result["seed"], result["run_s"] = seed, round(took, 2)
        runs.append(result)
        print(f"seed {seed}: {took:.1f} s, correct={result['correct']}", file=sys.stderr)
    if not runs:
        sys.exit("no run succeeded")
    print(f"{args.workload}: {len(runs)} runs, run time median "
          f"{statistics.median(r['run_s'] for r in runs):.1f} s, "
          f"max {max(r['run_s'] for r in runs):.1f} s")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "  OK" if spread < bound / 3 else ("  within bound" if spread <= bound else "  OVER BOUND")
        print(f"  {name:<32} median {med:>14.6g}  q1 {q1:>12.6g}  q3 {q3:>12.6g}  "
              f"spread {spread:7.4f}  bound {bound}{flag}")
    if args.out:
        data = {}
        if os.path.exists(args.out):
            with open(args.out) as f:
                data = json.load(f)
        data.setdefault(args.workload, []).extend(runs)
        with open(args.out, "w") as f:
            json.dump(data, f, indent=1)


if __name__ == "__main__":
    main()
