#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/prove.py [--runs 10] [--workloads a,b] [--trace 0]
                               [--seed-base 100] [--write perfbench/RESULTS.json]

Runs BENCHMARK.json's command once per (workload, seed) from the current
directory (a checkout root), then prints, per workload and metric, the
median, min, max and the quartile spread (Q3 - Q1) / median, with the
metric's bound beside it. --write stores the summary together with host and
run metadata.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (host_info)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--write", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    declared = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    summary = {"host": run.host_info(), "run_seconds": bench["run_seconds"],
               "runs": args.runs, "trace": args.trace,
               "seeds": [args.seed_base + i for i in range(args.runs)],
               "workloads": {}}
    ok = True
    for wl in names:
        values = {}
        wall = []
        for i in range(args.runs):
            seed = args.seed_base + i
            cmd = bench["command"] + [
                "--workload", wl, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            wall.append(time.monotonic() - t0)
            last = proc.stdout.strip().splitlines()[-1:] or [""]
            try:
                res = json.loads(last[0])
            except json.JSONDecodeError:
                print("%s seed %d: no result (exit %d): %s"
                      % (wl, seed, proc.returncode, last[0]))
                ok = False
                continue
            if proc.returncode != 0 or not res["correct"] or res["failed"]:
                print("%s seed %d: correct=%s failed=%d exit=%d"
                      % (wl, seed, res["correct"], res["failed"],
                         proc.returncode))
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        print("\n%s (%d runs, %.1f s/run)" % (wl, len(wall),
                                             statistics.mean(wall)))
        for name, vals in values.items():
            med = statistics.median(vals)
            spread = None
            if len(vals) >= 2 and med != 0:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(med)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread is not None and name != "setup_s":
                if spread > bound:
                    flag = "  OVER BOUND"
                    ok = False
                elif spread > bound / 3:
                    flag = "  over bound/3"
            print("  %-36s median %12.4f  min %12.4f  max %12.4f  spread %s"
                  "  bound %s%s"
                  % (name, med, min(vals), max(vals),
                     "%.3f" % spread if spread is not None else "-",
                     bound, flag))
            rows[name] = {"median": med, "min": min(vals), "max": max(vals),
                          "iqr_over_median": spread, "bound": bound}
        summary["workloads"][wl] = rows
    if args.write:
        with open(args.write, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
