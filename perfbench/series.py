#!/usr/bin/env python3
"""Records how one workload's runs vary on this host, to choose how an
invocation of run.py summarises its runs and how long it measures.

Run from the root of a checkout (the first run builds, see run.py):

    python3 perfbench/series.py --out perfbench/series.json

For each workload of BENCHMARK.json it runs the workload's command back
to back for SECONDS, timed and checked the way run.py does, and keeps
every run's wall and CPU time. Then it cuts the series into windows of
20, 35 and 55 seconds, the length of one invocation, starting every
STEP seconds. Per window it takes the best, the lower-quartile and the
median run, and over the windows it gives the spread (q3 - q1) / median
of each of these, as statistics.quantiles(n=4) gives them: how much an
invocation of that length summarised that way would vary. Exit code 1
if any run is incorrect.
"""
import sys

sys.dont_write_bytecode = True  # the benchmark writes only inside its checkout

import argparse
import json
import statistics
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SECONDS = 300
WINDOWS = (20, 35, 55)
STEP = 5


def lower_quartile(values):
    return statistics.quantiles(values, n=4, method="inclusive")[0]


SUMMARIES = {"best": min, "lower_quartile": lower_quartile,
             "median": statistics.median}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def windows(series, seconds):
    """The runs that lie wholly inside each window of `seconds`."""
    for start in range(0, int(series[-1]["end_s"] - seconds) + 1, STEP):
        runs = [r for r in series if r["end_s"] - r["wall_s"] >= start
                and r["end_s"] <= start + seconds]
        if len(runs) >= 2:
            yield runs


def record(workload):
    b = bench.Bench(argparse.Namespace(workload=workload, golden=None,
                                       workload_seed=None, seed=1))
    series = []
    start = time.monotonic()
    while time.monotonic() - start < SECONDS:
        run = bench.run_product(b.command(), bench.RUNS / "series.json",
                                time.monotonic() + bench.DEADLINE_S)
        b.checker.check(run)
        series.append({"end_s": round(time.monotonic() - start, 3),
                       "wall_s": run.wall, "cpu_s": run.cpu})
    spreads = {}
    for seconds in WINDOWS:
        cut = list(windows(series, seconds))
        spreads[seconds] = {
            name: {key: spread([summary([r[key] for r in runs])
                                for runs in cut])
                   for key in ("wall_s", "cpu_s")}
            for name, summary in SUMMARIES.items()}
        print(f"{workload:9} {seconds:2} s windows ({len(cut)}): " + ", ".join(
            f"{name} {s['wall_s']:.1%} wall {s['cpu_s']:.1%} cpu"
            for name, s in spreads[seconds].items()), flush=True)
    return {"runs": len(series), "failed": b.checker.failed,
            "spread": spreads, "series": series}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the record here")
    args = parser.parse_args()

    with open("BENCHMARK.json") as spec_file:
        workloads = [w["name"] for w in json.load(spec_file)["workloads"]]
    bench.build()
    result = {"seconds_per_workload": SECONDS, "window_step_s": STEP,
              "workloads": {w: record(w) for w in workloads}}
    if args.out:
        with open(args.out, "w") as out:
            json.dump(result, out, indent=1)
            out.write("\n")
    sys.exit(0 if all(w["failed"] == 0
                      for w in result["workloads"].values()) else 1)


if __name__ == "__main__":
    main()
