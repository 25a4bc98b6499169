#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per seed and prints, for every metric, the
median of its values and the distance between their first and third
quartiles (statistics.quantiles, n=4) as a share of that median, next
to the bound BENCHMARK.json gives it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(a.seeds):
        out = subprocess.run(
            ["python3", os.path.join(HERE, "run.py"), "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", a.trace],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        try:
            res = json.loads(last)
        except json.JSONDecodeError:
            sys.exit("seed %d: no result (exit %d)\n%s" % (seed, out.returncode, out.stderr[-2000:]))
        if not res["correct"]:
            print("seed %d: correct=false, %d of %d failed" % (seed, res["failed"], res["attempted"]))
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        print("seed %d: %s" % (seed, " ".join("%s=%.6g" % (k, v["value"]) for k, v in res["metrics"].items())),
              flush=True)
    print("%-32s %14s %8s %8s" % ("metric", "median", "spread", "bound"))
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        b = bounds.get(k)
        print("%-32s %14.6g %8.3f %8s" % (k, med, spread, "-" if b is None else b))


if __name__ == "__main__":
    main()
