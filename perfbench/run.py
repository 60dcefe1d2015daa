#!/usr/bin/env python3
"""Open-loop E2 benchmark: one command, one workload per invocation.

    python3 perfbench/run.py --workload fb-stats --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds the benchmark binary (and the
repository's src/ libraries it links) under .bench_build/perfbench on first
use, runs the benchmark's self-test, runs the workload, checks its outputs
and prints every metric by name with its unit. The last stdout line is the
result: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are BENCHMARK.json's end_to_end set, with --trace 1 its per_layer
set. A run whose generator ran late or too busy is invalid: it prints why and
exits 3 without a result line. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("fb-stats", "asn-telemetry", "sharded-small")

# Validity gate. The generator must keep the open-loop schedule: if its p99
# lateness exceeds five 1 ms TTIs, or it spent more than 92% of the window
# on scheduled work, the run measured the generator (or a crowded host),
# not FlexRIC.
GEN_LATE_P99_LIMIT_US = 5000.0
GEN_BUSY_LIMIT = 0.92

RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then let make rebuild whatever changed."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        os.makedirs(BUILD, exist_ok=True)
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target",
           "perfbench_e2", "perfbench_selftest"]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def host_info():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "kernel": platform.release(), "build_type": BUILD_TYPE}


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        log("perfbench: build failed")
        return 2
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        log("perfbench: self-test failed")
        return 2

    cmd = [os.path.join(BUILD, "perfbench_e2"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 2
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("perfbench: benchmark printed nothing (exit %d)" % proc.returncode)
        return 2
    raw = json.loads(lines[-1])

    info = raw["info"]
    late, busy = info["gen_late_p99_us"], info["gen_busy_frac"]
    if late > GEN_LATE_P99_LIMIT_US or busy > GEN_BUSY_LIMIT:
        print("INVALID run: generator late p99 %.1f us (limit %.0f), busy "
              "%.3f (limit %.2f); not a measurement of FlexRIC"
              % (late, GEN_LATE_P99_LIMIT_US, busy, GEN_BUSY_LIMIT))
        return 3

    want = declared_metrics(args.trace)
    metrics = raw["metrics"]
    correct = bool(raw["correct"]) and proc.returncode == 0
    if set(metrics) != set(want):
        log("perfbench: metric set differs from BENCHMARK.json: %s"
            % sorted(set(metrics) ^ set(want)))
        correct = False
    for name, m in metrics.items():
        if name in want and m["unit"] != want[name]:
            log("perfbench: %s reported in %s, declared %s"
                % (name, m["unit"], want[name]))
            correct = False

    meta = dict(host_info(), workload=args.workload, seed=args.seed,
                run_seconds=args.seconds, trace=args.trace,
                setup_repetitions=info["setup_reps"],
                setup_s_min=info["setup_min_s"],
                setup_s_max=info["setup_max_s"])
    print("perfbench %s seed=%d seconds=%g trace=%d  host: %d cpus, %s, %s"
          % (args.workload, args.seed, args.seconds, args.trace,
             meta["nproc"], meta["cpu_model"], BUILD_TYPE))
    for name, m in metrics.items():
        print("  %-36s %14.4f %s" % (name, m["value"], m["unit"]))
    print("  checks: " + ", ".join("%s=%s" % (k, "ok" if v else "FAIL")
                                   for k, v in raw["checks"].items()))
    print("  ledger: emitted=%d delivered=%d agent_shed=%d server_shed=%d "
          "orphans=%d fanout_shed=%d ind_fail_ratio=%g"
          % (info["emitted"], info["delivered"], info["agent_shed"],
             info["server_shed"], info["orphans"], info["fanout_shed"],
             info["ind_fail_ratio"]))
    print("  generator: late p99 %.1f us, busy %.3f; samples: lat=%d rtt=%d "
          "query=%d" % (late, busy, info["lat_samples"], info["rtt_samples"],
                        info["query_samples"]))

    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    record = {"meta": meta, "correct": correct,
              "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics, "checks": raw["checks"], "info": info}
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
