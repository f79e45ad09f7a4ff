#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, per metric, the median
and the interquartile range as a share of the median (the steadiness test
a benchmark bound is checked against). Run from the repository root:

    python3 perfbench/spread.py --workload durable-default --seeds 1-10
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    values = {}
    for seed in seeds(a.seeds):
        t0 = time.monotonic()
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", a.workload, "--seed", str(seed),
             "--seconds", a.seconds, "--trace", a.trace],
            check=True, stdout=subprocess.PIPE, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit(f"seed {seed}: correct={res['correct']} failed={res['failed']}")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({time.monotonic() - t0:.1f}s): " + " ".join(f"{k}={m['value']:.4g}" for k, m in sorted(res["metrics"].items())),
              file=sys.stderr, flush=True)
    for name, xs in sorted(values.items()):
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        share = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:36s} median={med:<14.6g} iqr/median={share:.4f}")


if __name__ == "__main__":
    main()
