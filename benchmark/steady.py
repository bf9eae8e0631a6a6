#!/usr/bin/env python3
"""Steadiness check: runs workloads several times with different seeds and
prints, for every metric, the median, the quartiles and the spread (distance
between the first and third quartile as a share of the median).

    python3 benchmark/steady.py [--workloads a,b] [--seeds 1,2,3,4,5]
                                [--seconds N] [--trace 0|1]

Run it from the repository root.  It reads the command and the bounds from
BENCHMARK.json, marks every end-to-end spread that is not below a third of
the metric's bound, and exits non-zero when a run fails or reports
`correct: false`.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        results = [run_once(bench["command"], workload, s, args.seconds, args.trace) for s in seeds]
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        ok &= correct
        print(f"\n{workload}: {len(seeds)} runs, correct={correct}, failed shares={sorted(shares)}")
        print(f"  {'metric':<30} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  bound")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3, s = spread(values)
            bound = bounds.get(name)
            mark = ""
            if bound is not None and s >= bound / 3:
                mark = "  <-- not below a third of the bound"
            print(f"  {name:<30} {q2:>14.6g} {q1:>14.6g} {q3:>14.6g} {s:>8.4f}  "
                  f"{'' if bound is None else bound}{mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
