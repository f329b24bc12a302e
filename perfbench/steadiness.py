#!/usr/bin/env python3
"""Measures how steady the benchmark is and records it next to its bounds.

Run from the root of a checkout (the first run builds, see run.py):

    python3 perfbench/steadiness.py --out perfbench/steadiness.json

For each workload of BENCHMARK.json it makes two sets of RUNS invocations
of perfbench/run.py with --trace 0, the first at seeds 1..RUNS and the
second at seeds RUNS+1..2*RUNS. The sets alternate invocation by
invocation, and which set goes first alternates too, so a slowdown of the
host that lasts minutes hits both sets alike. For every end-to-end metric
it stores each set's median and quartiles, its spread (q3 - q1) / median
as statistics.quantiles(n=4) gives them, how far the second median moved
from the first, and the bound both have to respect. Then it makes TRACED
invocations with --trace 1 and checks that every exact count repeats
exactly. It also checks that every run is correct and prints exactly the
metrics BENCHMARK.json names. Exit code 1 if any run is incorrect or a
count moved.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

RUNS = 10
TRACED = 2

# Per-layer metrics that are exact counts or ratios of counts: they must
# repeat exactly across runs of the same code.
EXACT = ("reuse.table.reusable_frac", "reuse.rtm.lookups",
         "reuse.rtm.probe_slots_per_lookup", "reuse.rtm.hit_frac",
         "reuse.rtm.insertions", "spec.accuracy", "spec.attempts",
         "engine.instructions")


def run_bench(workload, seed, seconds, trace, metrics):
    """One invocation; its metric values, or None if it failed or did not
    print exactly `metrics` with their units."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    got = result.get("metrics", {})
    if done.returncode != 0 or {n: m["unit"] for n, m in metrics.items()} != {
            n: m["unit"] for n, m in got.items()}:
        sys.stderr.write(done.stdout + done.stderr)
        print(f"{workload} seed {seed} trace {trace}: failed or wrong metrics")
        return None
    return {name: m["value"] for name, m in got.items()}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def cpu_model():
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the record here")
    args = parser.parse_args()

    with open("BENCHMARK.json") as spec_file:
        spec = json.load(spec_file)
    seconds = spec["run_seconds"]
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    ok = True
    record = {
        "host": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                 "kernel": platform.release()},
        "run_seconds": seconds,
        "runs_per_set": RUNS,
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        started = time.time()
        sets = ({name: [] for name in end_to_end},
                {name: [] for name in end_to_end})
        for i in range(RUNS):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                got = run_bench(workload, 1 + i + s * RUNS, seconds, 0,
                                end_to_end)
                if got is None:
                    ok = False
                    continue
                for name, value in got.items():
                    sets[s][name].append(value)
        metrics = {}
        for name, metric in end_to_end.items():
            if min(len(sets[0][name]), len(sets[1][name])) < 2:
                continue
            first, second = summary(sets[0][name]), summary(sets[1][name])
            moved = abs(second["median"] / first["median"] - 1.0)
            bound = metric["bound"]
            steady = (moved <= bound and
                      max(first["spread"], second["spread"]) < bound / 3)
            metrics[name] = {"bound": bound, "moved": moved, "steady": steady,
                             "sets": [first, second]}
            print(f"{workload:9} {name:14} medians {first['median']:<10.4g} "
                  f"{second['median']:<10.4g} moved {moved:6.1%} spreads "
                  f"{first['spread']:6.1%} {second['spread']:6.1%} bound "
                  f"{bound:.2f} {'steady' if steady else 'NOT STEADY'}",
                  flush=True)

        traced = [got for got in (run_bench(workload, seed, seconds, 1,
                                            per_layer)
                                  for seed in range(1, TRACED + 1))
                  if got is not None]
        ok &= len(traced) == TRACED
        changed = sorted({name for name in EXACT for run in traced[1:]
                          if run[name] != traced[0][name]})
        if changed:
            print(f"{workload}: counts moved between traced runs: {changed}")
            ok = False
        record["workloads"][workload] = {
            "minutes": round((time.time() - started) / 60, 1),
            "end_to_end": metrics,
            "traced_runs": len(traced),
            "counts_repeat_exactly": not changed,
            "per_layer": {name: (traced[0][name] if name in EXACT else
                                 statistics.median(run[name] for run in traced))
                          for name in per_layer} if traced else {},
        }
        if args.out:
            with open(args.out, "w") as out:
                json.dump(record, out, indent=2)
                out.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
